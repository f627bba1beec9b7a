package trace

import (
	"fmt"
	"io"
	"strings"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// Timeline renders recorded spans as an ASCII chart: one compute row
// ('#') and one communication row ('=') per device, sampled into
// fixed-width columns. It makes the Fig. 6 interleaving visible in a
// terminal:
//
//	gpu0 comp |####....####....|
//	gpu0 comm |....====....====|
//
// When gap annotations are installed via SetGaps, a third row per
// device marks idle intervals with their cause glyph:
//
//	gpu0 gaps |....rr......ll..|
type Timeline struct {
	rec   *Recorder
	width int
	gaps  []GapMark
}

// GapMark is one annotated idle interval on a device, rendered on the
// gap lane with its cause glyph (e.g. 'l' launch queue, 'e' event
// wait, 'r' rendezvous, 'R' recovery, '.' no work). Producers such as
// internal/analyze map their gap taxonomy onto glyphs; Timeline is
// agnostic to the cause set.
type GapMark struct {
	Device     int
	Start, End simclock.Time
	Glyph      byte
}

// SetGaps installs the gap-annotation lane. Passing nil removes it.
func (tl *Timeline) SetGaps(gaps []GapMark) { tl.gaps = gaps }

// NewTimeline builds a renderer of the given character width.
func NewTimeline(rec *Recorder, width int) *Timeline {
	if width < 8 {
		width = 8
	}
	return &Timeline{rec: rec, width: width}
}

// Render writes the chart for the given window; a zero until renders
// through the last recorded span.
func (tl *Timeline) Render(w io.Writer, from, until simclock.Time) error {
	if until == 0 {
		for _, s := range tl.rec.Spans() {
			if s.End > until {
				until = s.End
			}
		}
	}
	if until <= from {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	span := until - from
	devices := 0
	for _, s := range tl.rec.Spans() {
		if s.Device >= devices {
			devices = s.Device + 1
		}
	}
	for _, g := range tl.gaps {
		if g.Device >= devices {
			devices = g.Device + 1
		}
	}
	// fill marks the columns [start, end) covers, clipped to the window.
	fill := func(lane []byte, start, end simclock.Time, glyph byte) {
		if end <= from || start >= until {
			return
		}
		lo := int(int64(start-from) * int64(tl.width) / int64(span))
		hi := int(int64(end-from) * int64(tl.width) / int64(span))
		if lo < 0 {
			lo = 0
		}
		if hi >= tl.width {
			hi = tl.width - 1
		}
		for i := lo; i <= hi; i++ {
			lane[i] = glyph
		}
	}
	for d := 0; d < devices; d++ {
		comp := make([]byte, tl.width)
		comm := make([]byte, tl.width)
		for i := range comp {
			comp[i], comm[i] = '.', '.'
		}
		for _, s := range tl.rec.Spans() {
			if s.Device != d {
				continue
			}
			if s.Class == gpusim.Comm {
				fill(comm, s.Start, s.End, '=')
			} else {
				fill(comp, s.Start, s.End, '#')
			}
		}
		if _, err := fmt.Fprintf(w, "gpu%d comp |%s|\n", d, comp); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "gpu%d comm |%s|\n", d, comm); err != nil {
			return err
		}
		if tl.gaps == nil {
			continue
		}
		lane := make([]byte, tl.width)
		for i := range lane {
			lane[i] = ' '
		}
		for _, g := range tl.gaps {
			if g.Device == d {
				fill(lane, g.Start, g.End, g.Glyph)
			}
		}
		if _, err := fmt.Fprintf(w, "gpu%d gaps |%s|\n", d, lane); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s window: %v .. %v\n", strings.Repeat(" ", 4), from, until)
	return err
}
