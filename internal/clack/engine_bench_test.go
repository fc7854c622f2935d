package clack

import (
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
	"knit/internal/machine"
)

// BenchmarkEnginePerPacket times the compiled engine on the modular
// router with nothing around it: one machine with clack's devices and
// stopwatch, flow traffic generated before the timer, and one driver
// call per packet through M.Run, with no fleet, supervisor or
// collector. "kmain" is the drive perfbench's serving rig uses (kmain(1)
// polls both lanes, so it runs os_work twice per packet); "turn" is
// clack's (turn on the packet's lane). It reports ns/packet and
// instructions/packet; allocs/op reads 0 when the engine and the devices
// allocate nothing per packet.
//
//	go test -run '^$' -bench BenchmarkEnginePerPacket -benchmem ./internal/clack
func BenchmarkEnginePerPacket(b *testing.B) {
	res, err := BuildRouterTuned(Variant{}, func(o *build.Options) { o.Backend = machine.BackendCompiled })
	if err != nil {
		b.Fatal(err)
	}
	flows := DefaultFlowTraffic(4096).Generate()
	for _, drive := range []struct {
		name, sym string
		arg       func(lane int) int64
	}{
		{"kmain", "kmain", func(int) int64 { return 1 }},
		{"turn", "turn", func(lane int) int64 { return int64(lane) }},
	} {
		b.Run(drive.name, func(b *testing.B) {
			entry, err := res.Export("main", drive.sym)
			if err != nil {
				b.Fatal(err)
			}
			m := res.NewMachine()
			io := &shardIO{}
			installShardDevices(m, io)
			machine.InstallStopWatch(m)
			if err := res.RunInit(m); err != nil {
				b.Fatal(err)
			}
			serve := func(fp FlowPacket) {
				lane := fleet.FlowLane(fp.Flow, 2)
				io.rx[lane] = append(io.rx[lane], fp.Pkt)
				if _, err := m.Run(entry, drive.arg(lane)); err != nil {
					b.Fatal(err)
				}
				if io.head[lane] != len(io.rx[lane]) {
					b.Fatalf("%s left the packet in lane %d", drive.name, lane)
				}
				io.rx[lane], io.head[lane] = io.rx[lane][:0], 0
			}
			for _, fp := range flows { // warm the arenas and dispatch caches
				serve(fp)
			}
			start := m.Executed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(flows[i%len(flows)])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
			b.ReportMetric(float64(m.Executed-start)/float64(b.N), "instr/packet")
		})
	}
}
