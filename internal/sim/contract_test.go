package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
)

// recoverAny runs fn and returns its panic value, nil if it returned.
func recoverAny(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// panicText runs fn and returns what it panicked with, or "" if it returned.
func panicText(fn func()) string {
	if r := recoverAny(fn); r != nil {
		return fmt.Sprint(r)
	}
	return ""
}

// Every marker misuse panics, and the message names the marker and the
// region or iteration it found.
func TestMarkerContractPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *Machine)
		want string
	}{
		{"BeginRegion while a region is open", func(m *Machine) {
			m.MainLoopBegin()
			m.BeginIteration(2)
			m.BeginRegion(0)
			m.BeginRegion(1)
		}, "BeginRegion(1) with region 0 open in iteration 2"},
		{"EndRegion of a region that is not open", func(m *Machine) {
			m.MainLoopBegin()
			m.BeginRegion(3)
			m.EndRegion(1)
		}, "EndRegion(1) with region 3 open"},
		{"EndRegion with no region open", func(m *Machine) {
			m.MainLoopBegin()
			m.EndRegion(0)
		}, "EndRegion(0) with no region open"},
		{"EndRegion after the abort idiom closed it", func(m *Machine) {
			m.MainLoopBegin()
			m.BeginRegion(0)
			m.MainLoopEnd()
			m.EndRegion(0)
		}, "EndRegion(0) with no region open in iteration 0, outside the main loop"},
		{"EndIteration of another iteration", func(m *Machine) {
			m.MainLoopBegin()
			m.BeginIteration(5)
			m.EndIteration(4)
		}, "EndIteration(4) with no region open in iteration 5"},
		{"MainLoopBegin inside the main loop", func(m *Machine) {
			m.MainLoopBegin()
			m.MainLoopBegin()
		}, "MainLoopBegin() with no region open in iteration 0, inside the main loop"},
		{"Run returning without error mid-region", func(m *Machine) {
			m.MainLoopBegin()
			m.BeginIteration(5)
			m.BeginRegion(2)
			m.MainLoopEnd() // the kernel's deferred end
			m.RunReturned(nil)
		}, "Run returned with region 2 open in iteration 5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := panicText(func() { c.run(newM(t)) })
			if !strings.Contains(got, "sim: marker contract: "+c.want) {
				t.Fatalf("panic %q, want it to contain %q", got, c.want)
			}
		})
	}
}

// The ways a run legally ends mid-region — the abort idiom that reports an
// error, a crash unwinding through the deferred MainLoopEnd, Reset — all
// leave a machine the next run can mark from the start.
func TestMarkerContractRunsAgain(t *testing.T) {
	cases := []struct {
		name string
		stop func(m *Machine, o F64Slice)
	}{
		{"abort idiom", func(m *Machine, o F64Slice) {
			m.MainLoopBegin()
			m.BeginIteration(1)
			m.BeginRegion(0)
			m.MainLoopEnd()
			m.MainLoopEnd() // the deferred end
			m.RunReturned(errors.New("interrupted"))
			m.BeginRegion(0) // marking on after the abort is legal
			m.EndRegion(0)
		}},
		{"crash through deferred MainLoopEnd", func(m *Machine, o F64Slice) {
			m.SetCrashAfter(uint64(o.Len()) + 3) // mid-region, iteration 1
			if _, ok := recoverAny(func() { nestedWorkload(m, o, 0) }).(*Crash); !ok {
				t.Fatal("armed crash did not fire")
			}
		}},
		{"Reset after a crash with no deferred end", func(m *Machine, o F64Slice) {
			m.SetCrashAfter(3)
			recoverAny(func() {
				m.MainLoopBegin()
				m.BeginIteration(0)
				m.BeginRegion(0)
				for j := 0; j < o.Len(); j++ {
					o.Set(j, 1)
				}
			})
			m.Reset()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newM(t)
			c.stop(m, m.F64(m.Space().AllocF64("x", 32, true)))
			o := m.F64(m.Space().AllocF64("y", 32, true))
			if got := panicText(func() { nestedWorkload(m, o, 0); m.RunReturned(nil) }); got != "" {
				t.Fatalf("second run panicked: %s", got)
			}
		})
	}
}

// A snapshot forked mid-region carries the open region and iteration, so a
// machine resumed from it closes them legally — and only them.
func TestResumeMidRegionContinuesLegally(t *testing.T) {
	m := newM(t)
	o := m.F64(m.Space().AllocF64("x", 32, true))
	var snap *Snapshot
	m.SetForkHook(func(c Crash) uint64 {
		if c.Region != 0 || c.Iter != 1 {
			t.Fatalf("fork point at region %d iteration %d, want region 0 iteration 1", c.Region, c.Iter)
		}
		snap = m.Fork()
		return 0
	})
	m.SetCrashAfter(uint64(o.Len()) + 3)
	nestedWorkload(m, o, 0)

	r := newM(t)
	r.ResumeFrom(snap)
	if got := panicText(func() { r.EndRegion(1) }); !strings.Contains(got, "EndRegion(1) with region 0 open in iteration 1") {
		t.Fatalf("closing the wrong region on the resumed machine: panic %q", got)
	}
	if got := panicText(func() {
		r.EndRegion(0)
		r.EndIteration(1)
		r.MainLoopEnd()
	}); got != "" {
		t.Fatalf("resumed machine could not close its open markers: %s", got)
	}
}

// DurableCopy reads durable bytes only where they are the architectural
// state: after a cache drop with no access since. Reset and ResumeFrom
// forget the drop; the cases that use them start from a machine whose clock
// is where the drop left it, so only that rule can make them panic.
func TestDurableCopyContract(t *testing.T) {
	// dirtied returns a machine holding dirty stores to an object.
	dirtied := func(t *testing.T) (*Machine, mem.Object) {
		m := newM(t)
		o := m.Space().AllocF64("x", 32, true)
		m.MainLoopBegin()
		for i := 0; i < 32; i++ {
			m.F64(o).Set(i, float64(i+1))
		}
		m.MainLoopEnd()
		return m, o
	}
	cases := []struct {
		name string
		run  func(t *testing.T) *Machine // returns the machine to copy from
		ok   bool
	}{
		{"after CrashNow", func(t *testing.T) *Machine {
			m, _ := dirtied(t)
			m.CrashNow()
			return m
		}, true},
		{"after CrashWithFaults", func(t *testing.T) *Machine {
			m, _ := dirtied(t)
			m.AttachFaults(faultmodel.New(faultmodel.Config{RBER: 1e-3}, 1))
			m.CrashWithFaults()
			return m
		}, true},
		{"after ReplayCrash", func(t *testing.T) *Machine {
			m, _ := dirtied(t)
			b := newM(t)
			b.ResumeFrom(m.Fork())
			b.ReplayCrash(faultmodel.New(faultmodel.Config{RBER: 1e-3}, 1), m.Space().Extent(), nil)
			return b
		}, true},
		{"without a drop", func(t *testing.T) *Machine {
			m, _ := dirtied(t)
			return m
		}, false},
		{"after a load", func(t *testing.T) *Machine {
			m, o := dirtied(t)
			m.CrashNow()
			m.F64(o).At(0)
			return m
		}, false},
		{"after an Init-phase store", func(t *testing.T) *Machine {
			m, o := dirtied(t)
			m.CrashNow()
			m.F64(o).Set(0, 7) // outside the main loop: ticks no crash clock
			return m
		}, false},
		{"after RestoreObject", func(t *testing.T) *Machine {
			m, o := dirtied(t)
			m.CrashNow()
			m.RestoreObject(o, make([]byte, o.Size))
			return m
		}, false},
		{"after ResumeFrom", func(t *testing.T) *Machine {
			snap := newM(t).Fork() // clock 0, like the drop below
			m := newM(t)
			m.CrashNow()
			m.ResumeFrom(snap)
			return m
		}, false},
		{"after Reset", func(t *testing.T) *Machine {
			m := newM(t)
			m.CrashNow() // clock 0, where Reset leaves it
			m.Reset()
			return m
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.run(t)
			dst := make([]byte, 32*8)
			got := panicText(func() { m.DurableCopy(dst) })
			switch {
			case c.ok && got != "":
				t.Fatalf("DurableCopy panicked: %s", got)
			case c.ok && !bytes.Equal(dst, m.img.Bytes(0, uint64(len(dst)))):
				t.Fatal("DurableCopy differs from the durable image")
			case !c.ok && !strings.Contains(got, "DurableCopy outside a power loss"):
				t.Fatalf("DurableCopy did not panic with the contract message: %q", got)
			}
		})
	}
}
