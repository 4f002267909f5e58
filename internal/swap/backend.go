// Package swap implements the data-swap machinery: far-memory swap backends
// wrapping device models, swap channels (shared, isolated, or VM-isolated),
// and swap paths that compose a backend with a channel and an optional
// hierarchical host hop.
//
// The paper's two structural insights live here:
//
//   - Path shape: traditional VM-hosted far memory swaps hierarchically
//     (guest swap → host swap → device), paying a second copy and a shared
//     host-side stage per operation. xDM's frontswap-style frontend redirects
//     guest page-outs straight to the backend (host bypass).
//
//   - Channel shape: traditional swap uses one shared channel per host, so
//     co-located tasks contend; xDM gives each VM an isolated channel.
package swap

import (
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Extent describes one swap I/O: a run of contiguous pages moving between
// local memory and a backend.
type Extent struct {
	Pages      int
	Write      bool
	Sequential bool

	// OpID is the observability correlation id assigned by the path at
	// submit time (0 when tracing is off). Backends thread it into device
	// ops so a swap operation's spans can be stitched across layers.
	OpID uint64
}

// Bytes reports the extent's payload size.
func (e Extent) Bytes() int64 { return int64(e.Pages) * units.PageSize }

// Backend is a far-memory swap target.
type Backend interface {
	// Name identifies the backend instance.
	Name() string
	// Kind reports the underlying medium.
	Kind() device.Kind
	// CostPerGB is the relative hardware cost, the MEI denominator.
	CostPerGB() float64
	// Bandwidth is the device's peak bandwidth.
	Bandwidth() units.BytesPerSec
	// SetWidth adjusts the I/O width (parallel channels).
	SetWidth(w int)
	// Submit performs the extent transfer; done fires with its latency.
	// Under faults, done only fires when the transfer succeeds.
	Submit(ex Extent, done func(lat sim.Duration))
}

// ResultBackend is implemented by backends that can report op failure.
// done always fires exactly once with err != nil when any part of the
// extent failed — unless the underlying device is stalled (transient
// outage), in which case the op is silently lost and only the initiator's
// retry timeout (Path.Retry) notices.
type ResultBackend interface {
	Backend
	SubmitResult(ex Extent, done func(lat sim.Duration, err error))
}

// channelOverhead is the per-operation management cost of each extra I/O
// channel (request splitting, queue-pair doorbells, interrupt spreading).
// This is what makes wide I/O counterproductive for random-dominated tasks
// (Fig 5b / Fig 11): the overhead is paid per op, while the striping benefit
// only materializes for large sequential extents.
func channelOverhead(k device.Kind) sim.Duration {
	switch k {
	case device.SSD, device.HDD:
		return 2500 * sim.Nanosecond
	case device.RDMA, device.DPU:
		return 180 * sim.Nanosecond
	default: // DRAM-class media have almost free queue management
		return 60 * sim.Nanosecond
	}
}

// minStripePages reports the smallest worthwhile stripe for a device:
// pages such that transfer time at the per-channel rate is at least twice
// the read latency, clamped to [4, 64].
func minStripePages(spec device.Spec) int {
	bw := float64(spec.ChannelBandwidth)
	if bw <= 0 {
		bw = float64(spec.Bandwidth)
	}
	bytes := 2 * spec.ReadLatency.Seconds() * bw
	pages := int(bytes / float64(units.PageSize))
	if pages < 4 {
		pages = 4
	}
	if pages > 64 {
		pages = 64
	}
	return pages
}

// DeviceBackend adapts a simulated device into a swap backend, adding
// extent striping across the device's I/O channels.
type DeviceBackend struct {
	eng *sim.Engine
	dev *device.Device

	// pending counts extents submitted but not yet completed, for
	// least-loaded routing in AggregateBackend.
	pending int

	// free recycles extent records (see extentOp).
	free sim.FreeList[extentOp]

	// Observability handle, resolved once at construction (nil when off).
	rec   *obs.Recorder
	track string
}

// Pending reports extents in flight on this backend.
func (b *DeviceBackend) Pending() int { return b.pending }

// NewDeviceBackend wraps dev as a swap backend.
func NewDeviceBackend(eng *sim.Engine, dev *device.Device) *DeviceBackend {
	b := &DeviceBackend{eng: eng, dev: dev}
	if obs.On {
		if r := obs.Rec(eng); r != nil {
			b.rec = r
			b.track = "dev/" + dev.Name()
		}
	}
	return b
}

// Device exposes the wrapped device for stats inspection.
func (b *DeviceBackend) Device() *device.Device { return b.dev }

// Name implements Backend.
func (b *DeviceBackend) Name() string { return b.dev.Name() }

// Kind implements Backend.
func (b *DeviceBackend) Kind() device.Kind { return b.dev.Kind() }

// CostPerGB implements Backend.
func (b *DeviceBackend) CostPerGB() float64 { return b.dev.Spec().CostPerGB }

// Bandwidth implements Backend.
func (b *DeviceBackend) Bandwidth() units.BytesPerSec { return b.dev.Spec().Bandwidth }

// SetWidth implements Backend.
func (b *DeviceBackend) SetWidth(w int) {
	if w < 1 {
		w = 1
	}
	b.dev.SetChannels(w)
}

// Submit implements Backend. Extents larger than one page are striped across
// up to width (SetWidth) parallel sub-operations; every operation pays the
// per-channel management overhead for that width. done only fires when the
// whole extent succeeds; use SubmitResult for failure notification.
func (b *DeviceBackend) Submit(ex Extent, done func(lat sim.Duration)) {
	b.submit(ex, done, nil)
}

// SubmitResult implements ResultBackend: like Submit, but done reports the
// first error among the extent's stripes (a dead device rejects each stripe
// with device.ErrDown after device.FailFastLatency). A stalled device drops
// stripes silently, so done never fires and the extent counts as pending
// until the initiator times out.
func (b *DeviceBackend) SubmitResult(ex Extent, done func(lat sim.Duration, err error)) {
	b.submit(ex, nil, done)
}

// extentOp is one in-flight extent. Its callbacks are bound once, when the
// record is built, so recycling the record recycles them too. At most one of
// onLat (Submit) and onResult (SubmitResult) is set. An extent whose stripe
// a stalled device dropped never completes, and its record is left to the
// GC.
type extentOp struct {
	b         *DeviceBackend
	ex        Extent
	start     sim.Time
	stripes   int
	remaining int
	firstErr  error
	onLat     func(lat sim.Duration)
	onResult  func(lat sim.Duration, err error)

	issueFn  func()
	stripeFn func(lat sim.Duration, err error)
}

func (b *DeviceBackend) submit(ex Extent, onLat func(sim.Duration), onResult func(sim.Duration, error)) {
	if ex.Pages <= 0 {
		panic("swap: extent with no pages")
	}
	width := b.dev.Channels()
	mgmt := sim.Duration(width-1) * channelOverhead(b.dev.Kind())

	// Stripe across channels, but keep each sub-op large enough that its
	// transfer time is at least ~2x the device's base latency — smaller
	// stripes would spend the stripe mostly on per-op latency. The
	// threshold is therefore device-dependent: a 3µs RDMA NIC stripes
	// 32 KiB chunks profitably; a 75µs SSD wants >= 128 KiB.
	minStripe := minStripePages(b.dev.Spec())
	stripes := width
	if byLatency := ex.Pages / minStripe; stripes > byLatency {
		stripes = byLatency
	}
	if stripes < 1 {
		stripes = 1
	}
	if ex.Pages < stripes {
		stripes = ex.Pages
	}

	r := b.free.Get()
	if r == nil {
		r = &extentOp{b: b}
		r.issueFn = r.issue
		r.stripeFn = r.stripeDone
	}
	r.ex, r.start, r.stripes, r.remaining = ex, b.eng.Now(), stripes, stripes
	r.firstErr, r.onLat, r.onResult = nil, onLat, onResult
	b.pending++
	b.eng.After(mgmt, r.issueFn)
}

// issue runs after the per-width management overhead and sends the stripes
// to the device.
func (r *extentOp) issue() {
	b, ex := r.b, r.ex
	// The issue span covers the per-width management overhead paid
	// before any stripe reaches the device.
	if b.rec != nil && ex.OpID != 0 {
		b.rec.Span(b.track, "issue", r.start, obs.DetailOp(ex.OpID, -1))
	}
	base := ex.Pages / r.stripes
	extra := ex.Pages % r.stripes
	for i := 0; i < r.stripes; i++ {
		pages := base
		if i < extra {
			pages++
		}
		op := device.Op{
			Write: ex.Write,
			Size:  int64(pages) * units.PageSize,
			// Striped sub-ops of a sequential extent remain sequential
			// within their channel; random extents stay random.
			Sequential: ex.Sequential,
			ID:         ex.OpID,
			Stripe:     i,
		}
		b.dev.SubmitResult(op, r.stripeFn)
	}
}

// stripeDone counts one finished stripe. After the last one it recycles
// the record and then reports the extent: the listener may submit again and
// reuse this very record.
func (r *extentOp) stripeDone(_ sim.Duration, err error) {
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	r.remaining--
	if r.remaining != 0 {
		return
	}
	b, onLat, onResult, err := r.b, r.onLat, r.onResult, r.firstErr
	lat := b.eng.Now().Sub(r.start)
	b.pending--
	r.onLat, r.onResult, r.firstErr = nil, nil, nil
	b.free.Put(r)
	if onResult != nil {
		onResult(lat, err)
	} else if onLat != nil && err == nil {
		onLat(lat)
	}
}
