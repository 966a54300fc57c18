package main

type Fig10Row struct{}
