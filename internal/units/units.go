// Package units defines byte-size constants and helpers shared by the memory,
// device, and fabric models.
package units

import "fmt"

// Byte sizes (binary prefixes, as the kernel uses for pages and swap).
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// PageSize is the base (small) page size, 4 KiB, matching the common OS
// configuration in the paper.
const PageSize int64 = 4 * KiB

// BytesPerSec expresses a bandwidth. GBps constructs it from the decimal
// units vendors quote (1 GB/s = 1e9 B/s), which is also how the paper quotes
// device bandwidths.
type BytesPerSec float64

// GBps converts decimal gigabytes per second to BytesPerSec.
func GBps(v float64) BytesPerSec { return BytesPerSec(v * 1e9) }

// GB reports the bandwidth in decimal GB/s for display.
func (b BytesPerSec) GB() float64 { return float64(b) / 1e9 }

func (b BytesPerSec) String() string { return fmt.Sprintf("%.2f GB/s", b.GB()) }

// HumanBytes renders a byte count with a binary suffix.
func HumanBytes(n int64) string {
	switch {
	case n >= TiB:
		return fmt.Sprintf("%.1fTiB", float64(n)/float64(TiB))
	case n >= GiB:
		return fmt.Sprintf("%.1fGiB", float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
