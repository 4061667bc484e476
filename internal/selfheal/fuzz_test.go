package selfheal

import (
	"reflect"
	"slices"
	"testing"

	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
)

// decodeHealArrivals builds a nondecreasing arrival trace over nb
// bundles from fuzz bytes, mixing bursts, short gaps, and leaps —
// the same shapes the netsim open-loop fuzzers use.
func decodeHealArrivals(data []byte, nb int) *netsim.Trace {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	count := next() % 25
	tr := &netsim.Trace{}
	step := 0
	for i := 0; i < count; i++ {
		switch next() % 8 {
		case 0: // long gap: the engine should leap over it
			step += 20 + next()
		case 1, 2: // same-step burst
		default:
			step += next() % 4
		}
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: step, Tmpl: int32(next() % nb)})
	}
	return tr
}

// decodeHealSchedule builds a bounded schedule over the host's
// directed links from fuzz bytes.
func decodeHealSchedule(data []byte, numLinks int) *faults.Schedule {
	s := faults.NewSchedule()
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
		link := next() % numLinks
		from := 1 + next()%48
		if next()%2 == 0 {
			s.FailLink(link, from)
		} else {
			s.FailLinkTransient(link, from, from+1+next()%48)
		}
	}
	return s
}

// FuzzSelfHealOpenLoop holds the self-healing session's determinism
// contract on the Theorem 1 width-3 embedding of Q_4, for random
// arrival traces × fault schedules × policy configurations:
//
//   - replay: running the same configuration twice gives the same
//     Report, per-transfer records and latency multiset;
//   - conservation: the engine moves or drops exactly the injected
//     flit-hops, and on drained (non-timed-out) runs every transfer is
//     delivered or abandoned and the injected piece count decomposes
//     as base pieces + Retries;
//   - IDA never retries.
func FuzzSelfHealOpenLoop(f *testing.F) {
	e, err := cycles.Theorem1(4)
	if err != nil {
		f.Fatal(err)
	}
	numLinks := e.Host.DirectedEdges()
	nb := len(e.Paths)

	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{9, 3, 0, 4, 1, 5, 6, 2, 7, 3, 1}, []byte{4, 2, 1, 0, 10, 3, 1, 25, 9, 0}, []byte{1, 3, 2, 5})
	f.Add([]byte{14, 0, 200, 3, 0, 0, 1, 4, 5, 2, 2}, []byte{8, 0, 1, 0, 6, 2, 1, 20, 4, 1, 1, 7, 5, 0}, []byte{0, 1, 4, 17})
	f.Add([]byte{20, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{6, 2, 1, 0, 1, 2, 0, 10, 3, 0}, []byte{1, 0, 0, 200})
	f.Fuzz(func(t *testing.T, arrData, schedData, cfgData []byte) {
		cb := func(i int) int {
			if i < len(cfgData) {
				return int(cfgData[i])
			}
			return 0
		}
		cfg := Config{
			Mode:       netsim.Mode(cb(0) % 2),
			Flits:      1 + cb(1)%6,
			MaxRetries: cb(2) % 4,
			Faults:     decodeHealSchedule(schedData, numLinks),
			StepLimit:  40 + cb(3),
		}
		if cb(0)%4 >= 2 {
			cfg.Strategy = IDA
			cfg.K = 1 + cb(2)%3
		}
		switch cb(4) % 3 {
		case 0:
			cfg.Backoff = FixedBackoff{Steps: cb(5) % 5}
		case 1:
			cfg.Backoff = ExpBackoff{Base: 1 + cb(5)%3, Cap: 16, Jitter: 0.5, Seed: int64(cb(6))}
		}
		if cb(7)%2 == 1 {
			cfg.Deadline = 5 + cb(7)
		}
		tr := decodeHealArrivals(arrData, nb)

		type run struct {
			rep  *Report
			perT map[int32]transferRec
			sink []int
		}
		do := func() (*run, error) {
			c := cfg
			perT := map[int32]transferRec{}
			sink := &sliceSink{}
			c.PerTransfer = recordTransfers(perT)
			c.Sink = sink
			rep, err := Send(e, nil, tr, c)
			if err != nil {
				return nil, err
			}
			slices.Sort(sink.vals)
			return &run{rep: rep, perT: perT, sink: sink.vals}, nil
		}

		want, wantErr := do()
		got, err := do()
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("replay: error mismatch: %v vs %v", err, wantErr)
		}
		if wantErr != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("replay: error text %q vs %q", err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got.rep, want.rep) {
			t.Fatalf("replay: report diverged:\n%+v\nvs\n%+v", *got.rep, *want.rep)
		}
		if !reflect.DeepEqual(got.perT, want.perT) {
			t.Fatal("replay: per-transfer records diverged")
		}
		if !reflect.DeepEqual(got.sink, want.sink) {
			t.Fatalf("replay: latency multisets diverged: %v vs %v", got.sink, want.sink)
		}

		rep := want.rep
		en := &rep.Engine
		if en.FlitsMoved+en.DroppedFlits != en.InjectedHops {
			t.Fatalf("conservation: moved %d + dropped %d != injected hops %d", en.FlitsMoved, en.DroppedFlits, en.InjectedHops)
		}
		if en.DeliveredMsgs+en.FailedMsgs != en.Injected {
			t.Fatalf("pieces: delivered %d + failed %d != injected %d", en.DeliveredMsgs, en.FailedMsgs, en.Injected)
		}
		if rep.Transfers > len(tr.Arrivals) {
			t.Fatalf("transfers %d > arrivals %d", rep.Transfers, len(tr.Arrivals))
		}
		if cfg.Strategy == IDA && rep.Retries != 0 {
			t.Fatalf("IDA retried: %+v", rep)
		}
		if rep.Reroutes > rep.Retries {
			t.Fatalf("reroutes %d > retries %d", rep.Reroutes, rep.Retries)
		}
		if !en.TimedOut {
			if rep.Transfers != len(tr.Arrivals) {
				t.Fatalf("drained run: transfers %d, arrivals %d", rep.Transfers, len(tr.Arrivals))
			}
			if rep.Delivered+rep.Abandoned != rep.Transfers {
				t.Fatalf("drained run: delivered %d + abandoned %d != transfers %d", rep.Delivered, rep.Abandoned, rep.Transfers)
			}
			base := rep.Transfers
			if cfg.Strategy == IDA {
				base = 0
				for _, a := range tr.Arrivals {
					base += len(e.Paths[a.Tmpl])
				}
			}
			if en.Injected != base+rep.Retries {
				t.Fatalf("drained run: injected %d != base pieces %d + retries %d", en.Injected, base, rep.Retries)
			}
		}
	})
}
