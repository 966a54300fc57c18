package difftest

var scratches []*scratch
