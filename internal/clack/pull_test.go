package clack

import (
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// TestPullPathRouter builds a router using the true Click queue model:
// the push path ends at PullQueue; the driver schedules ToDevicePull to
// drain it — Click's push/pull duality expressed as Knit wiring.
func TestPullPathRouter(t *testing.T) {
	units := ElementUnits + `
unit PullDriver = {
  imports [ s0 : Step, d0 : Drain, osw : OsWork ];
  exports [ main : Main ];
  depends { main needs (s0 + d0 + osw); };
  files { "pulldriver.c" };
}

unit PullRouter = {
  exports [ main : Main ];
  link {
    [dev0] <- DevNo0 <- [];
    [q_in, q_out] <- PullQueue <- [];
    [fd_step] <- FromDevice <- [q_in, dev0];
    [sink] <- ToDevicePull <- [q_out, dev0];
    [osw] <- OSWork <- [];
    [main] <- PullDriver <- [fd_step, sink, osw];
  };
}
`
	sources := link.Sources{}
	for k, v := range ElementSources() {
		sources[k] = v
	}
	sources["pulldriver.c"] = `
int step(void);
int drain(void);
int os_work(void);
int kmain(int maxiter) {
    int pushed = 0;
    int drained = 0;
    for (int i = 0; i < maxiter; i++) {
        int got = 0;
        got += step();
        got += step();
        got += step();
        drained += drain();
        os_work();
        if (got == 0) { break; }
        pushed += got;
    }
    return pushed * 1000 + drained;
}
int turn(int lane) {
    int got = step();
    drain();
    os_work();
    return got;
}
`
	res, err := build.Build(build.Options{
		Top:       "PullRouter",
		UnitFiles: map[string]string{"pull.unit": units},
		Sources:   sources,
		Optimize:  true,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := res.NewMachine()
	spec := DefaultTraffic(60)
	streams := spec.Generate()
	stats := InstallDevices(m, streams)
	machine.InstallStopWatch(m)
	v, err := res.Run(m, "main", "kmain", 200)
	if err != nil {
		t.Fatal(err)
	}
	rx := len(streams[0])
	pushed := v / 1000
	drained := v % 1000
	if int(pushed) != rx || int(drained) != rx {
		t.Errorf("pushed %d, drained %d, want both == %d", pushed, drained, rx)
	}
	if stats.Tx[0] != rx {
		t.Errorf("tx = %d, want %d (pull path transmits on dev 0)", stats.Tx[0], rx)
	}
	if stats.Dropped != 0 {
		t.Errorf("dropped = %d", stats.Dropped)
	}
}
