package difftest

var memo accel.LaunchMemo
