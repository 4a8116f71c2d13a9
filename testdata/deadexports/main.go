package main

import (
	"fmt"

	"deadtest/lib"
)

func main() {
	var s lib.Shape = lib.Used()
	fmt.Println(s.Area())
}
