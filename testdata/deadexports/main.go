package main

import (
	"encoding/json"
	"fmt"
	"os"

	"deadtest/lib"
)

func main() {
	var s lib.Shape = lib.Used()
	d := &lib.Dial{Label: "x"}
	fmt.Println(s.Area(), d.Turn())
	c := lib.New(lib.Config{Name: "n"})
	fmt.Println(c.Hits.Load())
	json.NewEncoder(os.Stdout).Encode(lib.Report{Items: []lib.Item{{Count: 1}}})
}
