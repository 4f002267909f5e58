package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadSpecs: arbitrary bytes never panic the loader; accepted specs
// always validate and survive a round trip.
func FuzzLoadSpecs(f *testing.F) {
	var seed bytes.Buffer
	if err := json.NewEncoder(&seed).Encode(Specs()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"Name":"x","FootprintPages":1,"MainAccesses":1}]`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := LoadSpecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("loader accepted invalid spec: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(specs); err != nil {
			t.Fatalf("accepted specs cannot be saved: %v", err)
		}
		again, err := LoadSpecs(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again) != len(specs) {
			t.Fatal("round trip changed spec count")
		}
	})
}

// FuzzStream: any (sane) spec knobs produce a bounded, terminating stream.
func FuzzStream(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(128), uint8(90), uint8(50))
	f.Add(int64(9), uint16(64), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, pagesSeed uint16, segSeed, seqSeed, hotSeed uint8) {
		spec := Spec{
			Name: "fuzz", Class: Compute,
			FootprintPages: int(pagesSeed%2048) + 16,
			AnonFraction:   float64(hotSeed%100) / 100,
			Coverage:       0.5 + float64(seqSeed%50)/100,
			SegmentLen:     int(segSeed) + 1,
			SeqShare:       float64(seqSeed%100) / 100,
			RunLen:         int(segSeed%32) + 1,
			HotShare:       float64(hotSeed%90)/100 + 0.05,
			HotProb:        float64(seqSeed%90) / 100,
			WriteFraction:  0.3,
			MainAccesses:   2000,
		}
		if err := spec.Validate(); err != nil {
			t.Skip()
		}
		s := NewStream(spec, seed)
		n := 0
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.Page < 0 || int(a.Page) >= spec.FootprintPages {
				t.Fatalf("access %d out of range", a.Page)
			}
			n++
			if n > spec.MainAccesses+spec.FootprintPages+1 {
				t.Fatal("stream did not terminate")
			}
		}
	})
}
