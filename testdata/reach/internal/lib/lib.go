// Package lib holds the fixture's internal declarations, some reached from
// cmd/app and some not.
package lib

// Sayer is the interface through which Say is reached.
type Sayer interface{ Say() string }

// T is reached through NewT.
type T struct{ greeting string }

// NewT is called from main.
func NewT() *T { return &T{greeting: "hello"} }

// Say is reached only through Sayer.
func (t *T) Say() string { return t.greeting }

// Unused is a method nothing calls.
func (t *T) Unused() {}

// Stack is a generic type instantiated in main.
type Stack[E any] struct{ items []E }

// Push is reached only through Stack[int].
func (s *Stack[E]) Push(e E) { s.items = append(s.items, e) }

// Unused is an exported func nothing calls.
func Unused() { helper() }

// helper is called only from Unused.
func helper() {}

var _ = register()

// register is referenced only from a package-level var initialiser.
func register() bool { return true }
