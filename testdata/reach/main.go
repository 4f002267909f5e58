package main

import "fixture/lib"

func main() {
	lib.Run()
	lib.More()
}
