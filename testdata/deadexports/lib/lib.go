// Package lib plants what the dead-export scanner must report and what
// it must spare.
package lib

// Shape is called through its Area method by the main package.
type Shape interface{ Area() float64 }

// Square satisfies Shape.
type Square struct {
	Side   float64
	Name   string `json:"name"` // spared: a tag means reflection reads it
	Unused int    // dead: nothing reads or writes it
}

// Area is spared: it satisfies Shape.Area, which is called.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is dead: nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Used is called by the main package.
func Used() Square { return Square{Side: 2} }

// Dead is dead: nothing calls it.
func Dead() {}
