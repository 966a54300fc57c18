package main

func compileHere() { codegen.Compile(nil) }
