package lib

// More is reached from main. Each declaration below pins one rule on
// parameters, fallbacks, interface calls or write-only fields, next to a
// near miss the gate must not report.
func More() {
	o := Options{}
	o.fill()
	o.Depth = 4
	apply := Twice
	var sz Sizer = Disk{}
	var g Gauge
	g.sent.Add(1)
	g.seen.Add(2)
	sink = append(sink, o.Scaled(2, 3), o.Scaled(4, 3), Twice(1, 2), Twice(3, 2), apply(1, 2),
		o.Width, o.Depth, sz.Size(), g.seen.Total())
}

// Options.Width is set only by its own zero-value fallback, so it always
// holds 8; Depth has a fallback and one more write.
type Options struct{ Width, Depth int }

func (o *Options) fill() {
	if o.Width == 0 {
		o.Width = 8
	}
	if o.Depth == 0 {
		o.Depth = 2
	}
}

// Scaled's factor is 3 at both calls; x varies.
func (o Options) Scaled(x, factor int) int { return x * factor * o.Width }

// Twice's b is 2 at both calls, but Twice is also used as a value.
func Twice(a, b int) int { return a * b }

// Sizer.Size is called through the interface; nothing calls Cap.
type Sizer interface {
	Size() int
	Cap() int
}

type Disk struct{}

func (Disk) Size() int { return 1 }

func (Disk) Cap() int { return 2 }

// Tally is an accumulator: Add feeds it, Total reads it.
type Tally struct{ n int }

func (t *Tally) Add(k int) { t.n += k }

func (t Tally) Total() int { return t.n }

// Gauge.sent is only fed; Gauge.seen is read through Total.
type Gauge struct{ sent, seen Tally }
