package faults

import (
	"strings"
	"testing"
	"time"
)

// The validation errors are read by scenario authors hunting for one
// bad line in a long fault plan, so they must name the offending event
// index, kind, device, and time range — not just reject.

func TestValidateNegativeDurationDetail(t *testing.T) {
	s := Schedule{Events: []Event{
		{Kind: Slowdown, Device: 0, Start: time.Second, Duration: 10 * time.Millisecond, Factor: 0.5},
		{Kind: LinkDegrade, Device: 2, Start: 3 * time.Second, Duration: -time.Second, Factor: 0.5},
	}}
	err := s.Validate(4)
	if err == nil {
		t.Fatal("negative duration accepted")
	}
	for _, want := range []string{"event 1", "link-degrade", "dev2", "3s", "negative duration -1s", "persist to end"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestValidateDuplicateDeviceFailDetail(t *testing.T) {
	s := Schedule{Events: []Event{
		{Kind: DeviceFail, Device: 1, Start: time.Second},
		{Kind: Slowdown, Device: 0, Start: 0, Duration: time.Second, Factor: 0.5},
		{Kind: DeviceFail, Device: 1, Start: 2 * time.Second},
	}}
	err := s.Validate(4)
	if err == nil {
		t.Fatal("duplicate device-fail accepted")
	}
	for _, want := range []string{"event 2", "fails device 1 twice", "event 0", "1s"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestValidatePersistToEndStillAccepted(t *testing.T) {
	// Duration 0 is the documented persist-to-end shape (what a static
	// node.devices override compiles to); tightening the negative-duration
	// check must not break it.
	s := Schedule{Events: []Event{{Kind: Slowdown, Device: 1, Factor: 0.5}}}
	if err := s.Validate(4); err != nil {
		t.Errorf("persist-to-end rejected: %v", err)
	}
}
