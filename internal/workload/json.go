package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// Validate checks a spec's fields for consistency, returning a descriptive
// error for the first violation. Zero-valued optional fields (Threads) are
// permitted.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: spec needs a name")
	case s.FootprintPages <= 0:
		return fmt.Errorf("workload %s: footprint must be positive", s.Name)
	case s.MainAccesses <= 0:
		return fmt.Errorf("workload %s: main accesses must be positive", s.Name)
	case s.AnonFraction < 0 || s.AnonFraction > 1:
		return fmt.Errorf("workload %s: anon fraction %v outside [0,1]", s.Name, s.AnonFraction)
	case s.Coverage <= 0 || s.Coverage > 1:
		return fmt.Errorf("workload %s: coverage %v outside (0,1]", s.Name, s.Coverage)
	case s.SeqShare < 0 || s.SeqShare > 1:
		return fmt.Errorf("workload %s: seq share %v outside [0,1]", s.Name, s.SeqShare)
	case s.HotShare < 0 || s.HotShare > 1:
		return fmt.Errorf("workload %s: hot share %v outside [0,1]", s.Name, s.HotShare)
	case s.HotProb < 0 || s.HotProb > 1:
		return fmt.Errorf("workload %s: hot prob %v outside [0,1]", s.Name, s.HotProb)
	case s.WriteFraction < 0 || s.WriteFraction > 1:
		return fmt.Errorf("workload %s: write fraction %v outside [0,1]", s.Name, s.WriteFraction)
	case s.SegmentLen < 0:
		return fmt.Errorf("workload %s: negative segment length", s.Name)
	case s.RunLen < 0:
		return fmt.Errorf("workload %s: negative run length", s.Name)
	case s.ComputePerAccess < 0:
		return fmt.Errorf("workload %s: negative compute per access", s.Name)
	case s.Threads < 0:
		return fmt.Errorf("workload %s: negative thread count", s.Name)
	}
	return nil
}

// LoadSpecs decodes a JSON array of workload specs and validates each, so
// downstream users can run their own workload shapes through the system.
// Durations (ComputePerAccess) are nanoseconds.
func LoadSpecs(r io.Reader) ([]Spec, error) {
	var specs []Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("workload: decoding specs: %w", err)
	}
	for i := range specs {
		if specs[i].Coverage == 0 {
			specs[i].Coverage = 1
		}
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
