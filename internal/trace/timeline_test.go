package trace

import (
	"strings"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

func TestTimelineRender(t *testing.T) {
	rec := NewRecorder()
	us := func(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }
	addSpan(rec, 0, "g", gpusim.Compute, us(0), us(50))
	addSpan(rec, 0, "a", gpusim.Comm, us(50), us(100))
	addSpan(rec, 1, "g", gpusim.Compute, us(25), us(75))

	var sb strings.Builder
	tl := NewTimeline(rec, 20)
	if err := tl.Render(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"gpu0 comp", "gpu0 comm", "gpu1 comp", "#", "="} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Device 0's compute occupies the first half: its row must start
	// with '#' and end with '.'.
	lines := strings.Split(out, "\n")
	comp0 := lines[0]
	if !strings.Contains(comp0, "|#") {
		t.Fatalf("gpu0 compute should start busy: %q", comp0)
	}
	if !strings.HasSuffix(strings.TrimRight(comp0, "|"), ".") {
		t.Fatalf("gpu0 compute should end idle: %q", comp0)
	}
}

func TestTimelineEmpty(t *testing.T) {
	rec := NewRecorder()
	var sb strings.Builder
	if err := NewTimeline(rec, 40).Render(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Fatalf("empty recorder should render a placeholder: %q", sb.String())
	}
}

func TestTimelineWindowClipping(t *testing.T) {
	rec := NewRecorder()
	us := func(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }
	addSpan(rec, 0, "before", gpusim.Compute, us(0), us(10))
	addSpan(rec, 0, "inside", gpusim.Comm, us(50), us(60))
	addSpan(rec, 0, "after", gpusim.Compute, us(200), us(210))
	var sb strings.Builder
	if err := NewTimeline(rec, 10).Render(&sb, us(40), us(80)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	if strings.Contains(lines[0], "#") {
		t.Fatalf("out-of-window compute leaked into view: %q", lines[0])
	}
	if !strings.Contains(lines[1], "=") {
		t.Fatalf("in-window comm missing: %q", lines[1])
	}
}

func TestTimelineMinimumWidth(t *testing.T) {
	rec := NewRecorder()
	tl := NewTimeline(rec, 1)
	if tl.width < 8 {
		t.Fatalf("width %d below minimum", tl.width)
	}
}

func TestTimelineGapLane(t *testing.T) {
	rec := NewRecorder()
	us := func(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }
	addSpan(rec, 0, "g", gpusim.Compute, us(0), us(50))
	addSpan(rec, 0, "g2", gpusim.Compute, us(80), us(100))

	tl := NewTimeline(rec, 20)
	tl.SetGaps([]GapMark{{Device: 0, Start: us(50), End: us(80), Glyph: 'l'}})
	var sb strings.Builder
	if err := tl.Render(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gpu0 gaps") {
		t.Fatalf("gap lane missing:\n%s", out)
	}
	var lane string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "gpu0 gaps") {
			lane = line
		}
	}
	if !strings.Contains(lane, "l") {
		t.Fatalf("gap glyph missing from lane: %q", lane)
	}
	// The glyph must land mid-row: the device is busy at both edges.
	if strings.HasPrefix(lane, "gpu0 gaps |l") || strings.HasSuffix(strings.TrimSuffix(lane, "|"), "l") {
		t.Fatalf("gap glyph rendered at a busy edge: %q", lane)
	}

	// Without SetGaps the lane is absent.
	tl.SetGaps(nil)
	sb.Reset()
	if err := tl.Render(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "gaps") {
		t.Fatalf("gap lane rendered without annotations:\n%s", sb.String())
	}
}
