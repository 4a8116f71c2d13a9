// Package lib plants what the dead-export scanner must report and what
// it must spare.
package lib

import "sync/atomic"

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

// Dial has no tag, so every field must be both set and read.
type Dial struct {
	Scale float64 // dead: read, never set
	Label string  // dead: the main package sets it, nothing reads it
	Turns int     // spared: read only by op=
}

// Turn is called by the main package.
func (d *Dial) Turn() float64 {
	d.Turns += 1
	return d.Scale
}

// Dead is dead: nothing calls it.
func Dead() {}

// Config is what the main package hands New.
type Config struct {
	Name  string // spared: the main package sets it
	Limit int    // dead: only New's default sets it
}

// Counter counts calls.
type Counter struct {
	Hits atomic.Int64 // spared: Add sets it, Load reads it
}

// New applies Config's defaults.
func New(cfg Config) *Counter {
	if cfg.Limit == 0 {
		cfg.Limit = 8
	}
	c := new(Counter)
	c.Hits.Add(int64(len(cfg.Name) + cfg.Limit))
	return c
}

// Report is spared whole: its tag puts it in encoding/json's reach.
type Report struct {
	Items []Item `json:"items"`
}

// Item is spared: Report reaches it, so JSON reads what the main
// package sets.
type Item struct {
	Count int
}
