package main

func listStore() {}
