// Package lib is the fixture of the reachability gate (reach_test.go): each
// declaration pins one of its rules, and TestReachFixture lists the exact
// findings expected.
package lib

// Run is reached from main.
func Run() {
	var s Shape = Square{side: 2}
	c := &Counter{hits: 1}
	c.hits++
	c.hits = 3
	cfg := Config{Name: "run"}
	if cfg.Verbose || cfg.OnDone != nil || len(cfg.Items) > 0 {
		sink = append(sink, cfg.Name)
	}
	p := Point{1, 2}
	r := Record{}
	cell := Cell{}
	touch(&cell.v)
	k := Key{A: 1, B: 2}
	seen := map[Slot]bool{}
	pair := Pair{A: 1, B: 2}
	sink = append(sink, s.Area(), p, r, k == Key{}, len(seen), pair.A, Label{text: "x"}, Max(1, 2), Box[int]{v: 1}.Get())
}

// sink keeps Run's values live.
var sink []any

func touch(v *int) { *v = 1 }

// Unused is reached by nothing. Its read of Counter.hits does not count:
// fields are judged over reached code only.
func Unused() int { return Counter{}.hits }

// Run calls Area through Shape, so Square.Area is reached through it.
type Shape interface{ Area() int }

type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

// Scale is called by nothing, directly or through an interface.
func (s Square) Scale() {}

// Label.String is reached through the standard-library stand-ins.
type Label struct{ text string }

func (l Label) String() string { return l.text }

// Counter.hits is written by a keyed literal, ++ and = but never read.
type Counter struct{ hits int }

// Config.Verbose and Config.OnDone are read but never set; Items is never
// set either, but it is no knob.
type Config struct {
	Verbose bool
	OnDone  func()
	Name    string
	Items   []int
}

// Point is built positionally, so its fields count as read and written.
type Point struct{ X, Y int }

// Record is tagged, so its fields count as read and written.
type Record struct {
	ID int `json:"id"`
}

// Cell.v has its address taken: every field counts as read, v as written.
type Cell struct{ v, w int }

// Key is compared with ==, so its fields count as read.
type Key struct{ A, B int }

// Slot is a map key, so its fields count as read; they are not written.
type Slot struct{ n int }

// Pair.B is written by a keyed literal and never read.
type Pair struct{ A, B int }

// Max is generic: the call in Run reaches its origin.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Box is generic: Run calls Get on Box[int], which reaches the generic
// method through its origin.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Orphan is a type nothing names.
type Orphan struct{}

// Audit is allowlisted; auditHelper is reached through it.
func Audit() error { return auditHelper() }

func auditHelper() error { return nil }

// registered is set by init, which is a root.
var registered = map[string]func(){}

func init() { registered["run"] = Run }

// The blank var is a root: it reaches Blanked.
var _ = Blanked

// Blanked is reached only from the blank var.
func Blanked() {}
