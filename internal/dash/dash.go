// Package dash renders observability stream frames as a fixed-width
// text dashboard — the core of cmd/lbtop. Render is a pure function of
// its model: no terminal, no clock, no color state, so layouts are
// golden-testable and replayable from recorded frame files.
package dash

import (
	"fmt"
	"strings"

	"temperedlb/internal/obs"
)

// Model is everything a render needs: the frame window (chronological,
// last frame is the current state), the target line width, and whether
// to restrict the ramps to ASCII.
type Model struct {
	Frames []obs.Snapshot
	Width  int
	ASCII  bool
}

// DefaultWidth is used when the model leaves Width zero.
const DefaultWidth = 80

// Ramps from empty to full, one rune per intensity level.
var (
	unicodeRamp = []rune("▁▂▃▄▅▆▇█")
	asciiRamp   = []rune(".:-=+*#%@")
)

// Render lays the model out as one dashboard page. Lines are plain text
// (no ANSI escapes) and at most m.Width runes wide; the caller owns
// cursor movement and clearing.
func Render(m Model) []string {
	width := m.Width
	if width <= 0 {
		width = DefaultWidth
	}
	ramp := unicodeRamp
	if m.ASCII {
		ramp = asciiRamp
	}
	if len(m.Frames) == 0 {
		return []string{"lbtop — waiting for frames"}
	}
	cur := m.Frames[len(m.Frames)-1]
	// A distributed frame of a job wider than obs.LoadCells carries one
	// cell per block of ranks (the block's hottest) instead of the vector.
	heatLabel := "ranks "
	if n := len(cur.Loads); 0 < n && n < cur.Ranks {
		heatLabel = "cells "
	}

	lines := []string{
		clip(headerLine(cur), width),
		clip(loadLine(cur), width),
		clip(heatLabel+heatline(cur.Loads, cur.MaxLoad, width-6, ramp), width),
		clip(imbalanceLine(m.Frames, width, ramp), width),
		clip(rateLine(m.Frames), width),
		clip(faultLine(cur), width),
	}
	return lines
}

func headerLine(f obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lbtop — %s", orDash(f.Source))
	fmt.Fprintf(&b, "  phase %s", orDash(f.Phase))
	switch {
	case f.Phase == "step":
		fmt.Fprintf(&b, "  step %d", f.Step)
	case f.Trial > 0:
		fmt.Fprintf(&b, "  trial %d  iter %d", f.Trial, f.Iteration)
	}
	fmt.Fprintf(&b, "  ranks %d  seq %d", f.Ranks, f.Seq)
	return b.String()
}

func loadLine(f obs.Snapshot) string {
	return fmt.Sprintf("load  max %s  avg %s  min %s  sd %s  I %.3f",
		num(f.MaxLoad), num(f.AvgLoad), num(f.MinLoad), num(f.StdDev), f.Imbalance)
}

// heatline maps the per-rank load vector (or a summarised frame's
// cells) onto one row of intensity runes scaled by the frame maximum.
// Wider-than-width vectors are bucketed by maximum — a hot rank must
// stay visible after folding, which is also how cells are formed, so
// folding cells again still shows every block's hottest rank.
func heatline(loads []float64, max float64, width int, ramp []rune) string {
	if len(loads) == 0 {
		return "(no load vector)"
	}
	if width < 1 {
		width = 1
	}
	cells := loads
	if len(loads) > width {
		cells = make([]float64, width)
		for i := range cells {
			lo, hi := i*len(loads)/width, (i+1)*len(loads)/width
			if hi == lo {
				hi = lo + 1
			}
			m := loads[lo]
			for _, l := range loads[lo+1 : hi] {
				if l > m {
					m = l
				}
			}
			cells[i] = m
		}
	}
	var b strings.Builder
	for _, l := range cells {
		b.WriteRune(level(l, max, ramp))
	}
	return b.String()
}

// imbalanceLine draws I across the frame window as a sparkline scaled
// by the window maximum, annotated with the current value.
func imbalanceLine(frames []obs.Snapshot, width int, ramp []rune) string {
	cur := frames[len(frames)-1]
	tail := fmt.Sprintf(" %.3f", cur.Imbalance)
	room := width - 6 - len(tail)
	if room < 1 {
		room = 1
	}
	if len(frames) > room {
		frames = frames[len(frames)-room:]
	}
	max := 0.0
	for _, f := range frames {
		if f.Imbalance > max {
			max = f.Imbalance
		}
	}
	var b strings.Builder
	b.WriteString("I     ")
	for _, f := range frames {
		b.WriteRune(level(f.Imbalance, max, ramp))
	}
	b.WriteString(tail)
	return b.String()
}

// rateLine differences the cumulative counters across the window and
// divides by the window's wall-clock span. A single frame (or a zero
// span, as after volatile-field normalization) reports totals instead.
func rateLine(frames []obs.Snapshot) string {
	first, last := frames[0], frames[len(frames)-1]
	dt := (last.TimeMs - first.TimeMs) / 1e3
	if len(frames) < 2 || dt <= 0 {
		return fmt.Sprintf("total gossip %d  xfer %d  migr %d  msgs %d  bytes %d",
			last.GossipMsgs, last.TransferMsgs, last.Migrations, last.Msgs, last.Bytes)
	}
	rate := func(a, b int64) string {
		return num(float64(b-a) / dt)
	}
	return fmt.Sprintf("rates gossip %s/s  xfer %s/s  msgs %s/s  %s B/s  iter %.1fms",
		rate(first.GossipMsgs, last.GossipMsgs),
		rate(first.TransferMsgs, last.TransferMsgs),
		rate(first.Msgs, last.Msgs),
		rate(first.Bytes, last.Bytes),
		last.IterMs)
}

func faultLine(f obs.Snapshot) string {
	return fmt.Sprintf("fault drop %d  dup %d  retry %d  dupdrop %d  coll %d  epochs %d",
		f.Dropped, f.Duplicated, f.Retries, f.DupDrops, f.Collectives, f.Epochs)
}

// level picks the ramp rune for value scaled against max; max <= 0
// renders the lowest level.
func level(v, max float64, ramp []rune) rune {
	if max <= 0 || v <= 0 {
		return ramp[0]
	}
	i := int(v / max * float64(len(ramp)))
	if i >= len(ramp) {
		i = len(ramp) - 1
	}
	return ramp[i]
}

// num formats a value compactly: integers without decimals, large
// values with SI-style suffixes, small ones with two decimals.
func num(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// clip truncates a line to width runes.
func clip(s string, width int) string {
	r := []rune(s)
	if len(r) <= width {
		return s
	}
	return string(r[:width])
}
