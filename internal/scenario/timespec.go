package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Scenario time fields accept three spellings so files stay meaningful
// across hardware and cost-model changes:
//
//	"12ms"  absolute duration (time.ParseDuration syntax)
//	"30%"   fraction of the run's horizon (nominal trace span)
//	"4x"    multiple of the solo batch duration — the analytic time one
//	        batch takes on an idle node, the natural unit for deadlines,
//	        backoffs, and watchdog timeouts (what the Go chaos bench
//	        hard-coded)
//
// Resolution to an absolute time happens at compile, once the horizon
// and solo duration are known.

type timeKind int

const (
	timeUnset timeKind = iota
	timeAbs
	timeFrac
	timeSolo
)

// TimeSpec is one unresolved scenario time value.
type TimeSpec struct {
	kind timeKind
	abs  time.Duration
	val  float64
}

// IsZero reports whether the field was omitted.
func (t TimeSpec) IsZero() bool { return t.kind == timeUnset }

// Resolve converts to an absolute duration given the scenario's
// horizon and solo batch duration.
func (t TimeSpec) Resolve(horizon, solo time.Duration) time.Duration {
	switch t.kind {
	case timeAbs:
		return t.abs
	case timeFrac:
		return time.Duration(t.val * float64(horizon))
	case timeSolo:
		return time.Duration(t.val * float64(solo))
	default:
		return 0
	}
}

// String renders the spec as it was written.
func (t TimeSpec) String() string {
	switch t.kind {
	case timeAbs:
		return t.abs.String()
	case timeFrac:
		return fmt.Sprintf("%g%%", t.val*100)
	case timeSolo:
		return fmt.Sprintf("%gx", t.val)
	default:
		return "unset"
	}
}

func (t *TimeSpec) decodeValue(v any, path string) (err error) {
	*t, err = parseTimeSpec(v, path)
	return err
}

// parseTimeSpec parses a scalar into a TimeSpec. Bare numbers are
// rejected — a unitless time is almost always an author mistake.
func parseTimeSpec(v any, path string) (TimeSpec, error) {
	switch s := v.(type) {
	case float64:
		if s == 0 {
			return TimeSpec{}, nil
		}
		return TimeSpec{}, fmt.Errorf("%s: bare number %v — use a unit (\"12ms\"), a horizon fraction (\"30%%\"), or solo multiples (\"4x\")", path, s)
	case string:
		return parseTimeSpecString(s, path)
	default:
		return TimeSpec{}, fmt.Errorf("%s: want a time value, got %T", path, v)
	}
}

func parseTimeSpecString(s, path string) (TimeSpec, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return TimeSpec{}, nil
	case strings.HasSuffix(s, "%"):
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil || f < 0 || !finite(f) {
			return TimeSpec{}, fmt.Errorf("%s: bad horizon fraction %q", path, s)
		}
		return TimeSpec{kind: timeFrac, val: f / 100}, nil
	case strings.HasSuffix(s, "x"):
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil || f < 0 || !finite(f) {
			return TimeSpec{}, fmt.Errorf("%s: bad solo multiple %q", path, s)
		}
		return TimeSpec{kind: timeSolo, val: f}, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return TimeSpec{}, fmt.Errorf("%s: bad duration %q (want e.g. \"12ms\", \"30%%\", or \"4x\")", path, s)
		}
		return TimeSpec{kind: timeAbs, abs: d}, nil
	}
}

// RateSpec is the arrival rate: absolute batches/second, or relative
// to the node's analytic intra-op saturation capacity ("0.8x" = 80% of
// the rate that saturates the tensor-parallel baseline). The relative
// form keeps a scenario's operating point stable when the cost model
// or hardware preset moves.
type RateSpec struct {
	abs      float64
	relative float64
}

// IsZero reports whether the field was omitted.
func (r RateSpec) IsZero() bool { return r.abs == 0 && r.relative == 0 }

// Resolve returns batches/second given the node's intra-op capacity.
func (r RateSpec) Resolve(capacity float64) float64 {
	if r.relative > 0 {
		return r.relative * capacity
	}
	return r.abs
}

// String renders the spec as written.
func (r RateSpec) String() string {
	if r.relative > 0 {
		return fmt.Sprintf("%gx", r.relative)
	}
	return fmt.Sprintf("%g", r.abs)
}

func (r *RateSpec) decodeValue(v any, path string) (err error) {
	*r, err = parseRateSpec(v, path)
	return err
}

func parseRateSpec(v any, path string) (RateSpec, error) {
	switch s := v.(type) {
	case float64:
		if !(s > 0) {
			return RateSpec{}, fmt.Errorf("%s: rate must be positive, got %v", path, s)
		}
		if !finite(s) {
			return RateSpec{}, fmt.Errorf("%s: rate must be finite, got %v", path, s)
		}
		return RateSpec{abs: s}, nil
	case string:
		t := strings.TrimSpace(s)
		if strings.HasSuffix(t, "x") {
			f, err := strconv.ParseFloat(strings.TrimSuffix(t, "x"), 64)
			if err != nil || f <= 0 || !finite(f) {
				return RateSpec{}, fmt.Errorf("%s: bad capacity-relative rate %q", path, s)
			}
			return RateSpec{relative: f}, nil
		}
		f, err := strconv.ParseFloat(t, 64)
		if err != nil || f <= 0 || !finite(f) {
			return RateSpec{}, fmt.Errorf("%s: bad rate %q (want batches/s or \"0.8x\")", path, s)
		}
		return RateSpec{abs: f}, nil
	default:
		return RateSpec{}, fmt.Errorf("%s: want a rate, got %T", path, v)
	}
}
