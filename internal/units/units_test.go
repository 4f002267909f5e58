package units

import "testing"

func TestByteConstants(t *testing.T) {
	if KiB != 1024 || MiB != 1024*KiB || GiB != 1024*MiB || TiB != 1024*GiB {
		t.Fatal("binary prefixes wrong")
	}
	if PageSize != 4096 {
		t.Fatal("page size must be 4 KiB")
	}
}

func TestBandwidthConstructors(t *testing.T) {
	if GBps(1) != 1e9 {
		t.Fatalf("GBps(1) = %v", float64(GBps(1)))
	}
	if GBps(3.8).GB() != 3.8 {
		t.Fatalf("GB() roundtrip = %v", GBps(3.8).GB())
	}
	if got := GBps(10).String(); got != "10.00 GB/s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{4 * KiB, "4.0KiB"},
		{3 * MiB, "3.0MiB"},
		{2 * GiB, "2.0GiB"},
		{5 * TiB, "5.0TiB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
