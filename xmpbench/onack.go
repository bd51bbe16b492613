package main

import (
	"slices"
	"time"

	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/mptcp"
	"xmp/internal/sim"
)

// The controllers' per-ACK cost, timed on a synthetic ACK stream: one
// segment per ACK, every eighth ACK carrying one CE mark, a fast
// retransmit every 512 ACKs so loss-driven windows stay bounded. The
// coupled controllers run as subflow 0 of a two-subflow group whose
// sibling is established.

const (
	onAckCalls = 100_000
	onAckReps  = 5
)

// onAckControllers builds each measured controller with the group member
// it publishes to (nil for single-path DCTCP).
var onAckControllers = []struct {
	metric string
	build  func() (cc.Controller, *cc.Member)
}{
	{"core.xmp_onack_ns", func() (cc.Controller, *cc.Member) {
		subs := core.XMP(2, cc.DefaultInitialWindow, 4) // BOS with δ from TraSh.DeltaFor
		activate(subs[1].Member)
		return subs[0].BOS, subs[0].Member
	}},
	{"cc.lia_onack_ns", func() (cc.Controller, *cc.Member) {
		g, m := pair()
		return mptcp.NewLIA(cc.DefaultInitialWindow, g, m), m
	}},
	{"cc.olia_onack_ns", func() (cc.Controller, *cc.Member) {
		g := cc.NewFlowGroup()
		m, sib := g.Join(), g.Join()
		mptcp.NewOLIA(cc.DefaultInitialWindow, g, sib)
		activate(sib)
		return mptcp.NewOLIA(cc.DefaultInitialWindow, g, m), m
	}},
	{"cc.amp_onack_ns", func() (cc.Controller, *cc.Member) {
		g, m := pair()
		return cc.NewAMP(cc.DefaultInitialWindow, g, m), m
	}},
	{"cc.dctcp_onack_ns", func() (cc.Controller, *cc.Member) {
		return cc.NewDCTCP(cc.DefaultInitialWindow, 1.0/16), nil
	}},
}

// pair returns a group with an established sibling and the member for the
// measured controller.
func pair() (*cc.FlowGroup, *cc.Member) {
	g := cc.NewFlowGroup()
	m, sib := g.Join(), g.Join()
	activate(sib)
	return g, m
}

func activate(m *cc.Member) {
	m.Active, m.SRTT, m.Cwnd = true, 100*sim.Microsecond, 10
}

// onAckNs returns the median over onAckReps runs of the per-call cost of
// each controller's OnAck, in nanoseconds, keyed by metric name.
func onAckNs() map[string]float64 {
	out := map[string]float64{}
	for _, c := range onAckControllers {
		var reps []float64
		for r := 0; r < onAckReps; r++ {
			ctl, m := c.build()
			if m != nil {
				activate(m)
			}
			reps = append(reps, driveAcks(ctl, m))
		}
		slices.Sort(reps)
		out[c.metric] = reps[len(reps)/2]
	}
	return out
}

// driveAcks feeds onAckCalls synthetic ACKs and returns ns per OnAck.
func driveAcks(ctl cc.Controller, m *cc.Member) float64 {
	const rtt = 100 * sim.Microsecond
	var una int64
	now := sim.Time(0)
	t0 := time.Now()
	for i := 0; i < onAckCalls; i++ {
		w := int64(ctl.Window())
		una++
		now += sim.Time(rtt) / sim.Time(w)
		echo := 0
		if i%8 == 7 {
			echo = 1
		}
		ctl.OnAck(cc.Ack{Now: now, NewlyAcked: 1, SndUna: una, SndNxt: una + w, ECNEcho: echo, SRTT: rtt, RTTSample: rtt})
		if m != nil {
			m.Cwnd = ctl.Window()
		}
		if i%512 == 511 {
			ctl.OnFastRetransmit()
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / onAckCalls
}
