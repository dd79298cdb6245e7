package transporttest

import (
	"testing"
)

// pingPongTrips is the number of round trips one benchmark op makes.
const pingPongTrips = 256

// BenchmarkTransportPingPong runs one protocol on every backend: rank 0
// sends a 1 KiB payload, rank 1 echoes it, each side on its own
// goroutine with a blocking Recv, pingPongTrips round trips per op. The
// ns/rt metric is the wall time of one round trip.
func BenchmarkTransportPingPong(b *testing.B) {
	for _, bc := range []struct {
		name    string
		factory Factory
	}{
		{"sim", simFactory},
		{"proc-unix", procFactory("unix")},
		{"proc-tcp", procFactory("tcp")},
	} {
		b.Run(bc.name, func(b *testing.B) { benchPingPong(b, bc.factory) })
	}
}

func benchPingPong(b *testing.B, factory Factory) {
	tr := factory(b, 2)
	c0, c1 := endpoint(b, tr, 0), endpoint(b, tr, 1)
	payload := make([]byte, 1024)
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < b.N*pingPongTrips; i++ {
			msg, err := c1.Recv(0, 1)
			if err == nil {
				err = c1.Send(0, 2, msg.Data)
				msg.Release()
			}
			if err != nil {
				tr.Abort() // unblocks rank 0's receive
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < pingPongTrips; j++ {
			if err := c0.Send(1, 1, payload); err != nil {
				b.Fatal(err)
			}
			msg, err := c0.Recv(1, 2)
			if err != nil {
				tr.Abort() // unblocks the echo
				b.Fatalf("round trip %d: %v (echo: %v)", j, err, <-echoed)
			}
			msg.Release()
		}
	}
	b.StopTimer()
	if err := <-echoed; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pingPongTrips), "ns/rt")
}
