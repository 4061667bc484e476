package faults

import "testing"

// decodeSchedule builds a bounded schedule from raw fuzz bytes: up to 8
// events over 16 links with fail/recover steps in [1, 64]. The decode
// is total, so the fuzzer explores window overlap patterns rather than
// input validation.
func decodeSchedule(data []byte) *Schedule {
	s := NewSchedule()
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	events := next() % 9
	for i := 0; i < events; i++ {
		link := next() % 16
		from := 1 + next()%64
		switch next() % 3 {
		case 0:
			s.FailLink(link, from)
		case 1:
			s.FailLinkTransient(link, from, from+1+next()%64)
		case 2:
			until := next() % 64 // may be ≤ from: an empty window
			s.FailLinkTransient(link, from, until)
		}
	}
	return s
}

// refStatus and refHorizon are the golden model of Schedule's queries:
// a plain scan of the window map, with no filter and no cached
// horizon.
func refStatus(s *Schedule, link, step int) (down, permanent bool) {
	for _, w := range s.byLink[link] {
		if w.covers(step) {
			down = true
			if w.permanentAt(step) {
				return true, true
			}
		}
	}
	return down, false
}

func refHorizon(s *Schedule) int {
	h := 0
	for _, ws := range s.byLink {
		for _, w := range ws {
			h = max(h, w.From, w.Until)
		}
	}
	return h
}

// farLink is a link id far above any filter a small schedule may
// build, so queries for it fall through to the map.
const farLink = 1 << 40

// FuzzScheduleInvariants asserts, for arbitrary event lists:
//
//   - golden model: Status and Horizon match refStatus and refHorizon
//     at every (link, step) checked below,
//   - determinism: Status answers are stable across calls,
//   - permanence: once (down, permanent) holds at step t, it holds at
//     every later step,
//   - horizon: after Horizon() no link changes state,
//   - static view: EverDown(l) iff Status reports down at some step.
//
// The same checks run on the union of the schedules decoded from the
// two halves of the input, and on a copy of the schedule whose windows
// sit on negative ids and on ids far above the filter.
func FuzzScheduleInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 10, 0})
	f.Add([]byte{2, 3, 10, 1, 5, 3, 10, 2, 0})
	f.Add([]byte{3, 7, 1, 0, 7, 1, 1, 63, 7, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		links := make([]int, 0, 18)
		for link := 0; link < 16; link++ {
			links = append(links, link)
		}
		links = append(links, -1, farLink)
		s := decodeSchedule(data)
		checkSchedule(t, "decoded", s, links)

		half := len(data) / 2
		checkSchedule(t, "union", Union(decodeSchedule(data[:half]), decodeSchedule(data[half:])), links)

		moved := NewSchedule()
		var movedLinks []int
		for link := 0; link < 16; link++ {
			for _, w := range s.byLink[link] {
				moved.add(-1-link, w)
				moved.add(farLink+link, w)
			}
			movedLinks = append(movedLinks, -1-link, farLink+link)
		}
		checkSchedule(t, "moved", moved, movedLinks)
		for link := 0; link < 16; link++ {
			for step := 1; step <= s.Horizon()+2; step++ {
				d, p := s.Status(link, step)
				dn, pn := moved.Status(-1-link, step)
				df, pf := moved.Status(farLink+link, step)
				if dn != d || pn != p || df != d || pf != p {
					t.Fatalf("link %d step %d: moved windows answer differently", link, step)
				}
			}
		}
	})
}

// checkSchedule runs FuzzScheduleInvariants' checks on s for every
// listed link.
func checkSchedule(t *testing.T, name string, s *Schedule, links []int) {
	t.Helper()
	h := s.Horizon()
	if h < 0 {
		t.Fatalf("%s: bounded schedule reports horizon %d", name, h)
	}
	if want := refHorizon(s); h != want {
		t.Fatalf("%s: horizon %d, reference %d", name, h, want)
	}
	for _, link := range links {
		everDown := false
		permSince := -1
		for step := 1; step <= h+3; step++ {
			down, perm := s.Status(link, step)
			d2, p2 := s.Status(link, step)
			if down != d2 || perm != p2 {
				t.Fatalf("%s: Status not deterministic", name)
			}
			if rd, rp := refStatus(s, link, step); down != rd || perm != rp {
				t.Fatalf("%s: link %d step %d: Status (%v, %v), reference (%v, %v)",
					name, link, step, down, perm, rd, rp)
			}
			if perm && !down {
				t.Fatalf("%s: permanent but not down", name)
			}
			if down {
				everDown = true
			}
			if permSince >= 0 && (!down || !perm) {
				t.Fatalf("%s: link %d: permanent at step %d but up/transient at %d",
					name, link, permSince, step)
			}
			if perm && permSince < 0 {
				permSince = step
			}
		}
		// After the horizon the state is frozen.
		dH, pH := s.Status(link, h+1)
		for _, step := range []int{h + 2, h + 10, h + 1000} {
			d, p := s.Status(link, step)
			if d != dH || p != pH {
				t.Fatalf("%s: link %d changes state after horizon %d", name, link, h)
			}
			if rd, rp := refStatus(s, link, step); d != rd || p != rp {
				t.Fatalf("%s: link %d step %d: Status (%v, %v), reference (%v, %v)",
					name, link, step, d, p, rd, rp)
			}
		}
		if everDown != s.EverDown(link) {
			t.Fatalf("%s: link %d: EverDown=%v but observed %v", name, link, s.EverDown(link), everDown)
		}
	}
}

// FuzzPerStepDeterminism asserts the stateless per-step model is
// replayable and never permanent, for arbitrary seeds and probes.
func FuzzPerStepDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(3), uint16(5))
	f.Add(int64(-99), uint8(200), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, pByte uint8, link, step uint16) {
		m := &PerStep{P: float64(pByte) / 255, Seed: seed}
		d1, p1 := m.Status(int(link), int(step))
		d2, p2 := m.Status(int(link), int(step))
		if d1 != d2 || p1 != p2 {
			t.Fatal("PerStep not deterministic")
		}
		if p1 {
			t.Fatal("PerStep outage reported permanent")
		}
		if pByte == 255 && !d1 {
			// hash01 < 1.0 always holds, so P=1 downs every pair.
			t.Fatal("P=1 left a link up")
		}
	})
}
