// Package shapes holds one case of each rule the unused check applies.
package shapes

import "fmt"

// Live is called from the app; helper lives through it.
func Live() int { return helper() + dead2() }

func helper() int { return 1 }

func dead() {} // want "func dead has no non-test use"

// recursive only calls itself.
func recursive(n int) int { // want "func recursive has no non-test use"
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

func dead2() int { return 2 }

const unusedConst = 1 // want "const unusedConst has no non-test use"

var unusedVar int // want "var unusedVar has no non-test use"

type unusedType struct{} // want "type unusedType has no non-test use"

// A method on unusedType does not keep the type alive.
func (unusedType) M() {} // want "method unusedType.M has no non-test use"

// Embedded is read through promotion from T.
type Embedded struct{ X int }

// T has one field of each kind.
type T struct {
	read     int
	assigned int          // want "field T.assigned is only ever stored to"
	bumped   int          // want "field T.bumped is only ever stored to"
	keyed    int          // want "field T.keyed is only ever stored to"
	grown    []int        // want "field T.grown is only ever stored to"
	indexed  map[int]bool // want "field T.indexed is only ever stored to"
	Tagged   int          `json:"tagged"`
	Embedded
}

// NewT stores to every field.
func NewT() *T {
	t := &T{keyed: 1, indexed: map[int]bool{}}
	t.assigned = 2
	t.bumped++
	t.grown = append(t.grown, 3)
	t.indexed[4] = true
	t.read = 5
	t.Tagged = 6
	return t
}

// Used reads t.read and a promoted field.
func (t *T) Used() int { return t.read + t.X }

func (t *T) unusedMethod() {} // want "method T.unusedMethod has no non-test use"

// Shape's Area is never called, so it and its implementation are dead.
type Shape interface {
	Area() float64 // want "method Shape.Area has no non-test use"
}

// Square implements Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side } // want "method Square.Area has no non-test use"

// Hold stores a Shape.
func Hold(s Shape) { held = append(held, s) }

var held []Shape

// Namer's Name is called by Greet, so Dog.Name lives.
type Namer interface{ Name() string }

// Dog is a Namer.
type Dog struct{}

func (Dog) Name() string { return "dog" }

// Greet calls the interface method.
func Greet(n Namer) string { return n.Name() }

// Color's String lives through fmt.Stringer.
type Color int

func (c Color) String() string { return fmt.Sprint(int(c)) }

// box's val is read through an instantiation; spare is only stored.
type box[V any] struct {
	val   V
	spare V // want "field box.spare is only ever stored to"
}

func (b *box[V]) get() V { return b.val }

// Unbox reads box[int].val.
func Unbox() int {
	b := box[int]{val: 1, spare: 2}
	return b.get() + b.val
}

// pair is built positionally; only a is read.
type pair struct {
	a int
	b int // want "field pair.b is only ever stored to"
}

// First reads a positional literal's first field.
func First() int { return pair{1, 2}.a }

func allowed() {} //lint:allow unused kept to pin the allow grammar

/* want "lint:allow needs an analyzer name and a written reason" */ //lint:allow unused
func noReason()                                                     {} // want "func noReason has no non-test use"

// OnlySkipped is used only from a caller-only package.
func OnlySkipped() {}
