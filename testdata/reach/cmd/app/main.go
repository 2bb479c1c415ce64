// Command app is the fixture's one binary.
package main

import (
	"fmt"

	"reachfix/internal/lib"
)

func main() {
	var s lib.Sayer = lib.NewT()
	fmt.Println(s.Say())

	var st lib.Stack[int]
	st.Push(1)
}
