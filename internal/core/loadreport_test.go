package core

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/renderservice"
)

// TestLoadReportingDrivesMigrationEngine closes the §3.2.7 loop over
// a socket: a render service renders (so it has a frame rate), streams
// periodic load reports to the data service over its subscription
// (SubscribeOpts.ReportInterval), and the session's migration engine
// records them.
func TestLoadReportingDrivesMigrationEngine(t *testing.T) {
	ds := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := ds.CreateSessionFromMesh("s", "m", genmodel.Galleon(1200))
	if err != nil {
		t.Fatal(err)
	}
	dist := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(dist)

	rs := renderservice.New(renderservice.Config{
		Name: "laptop", Device: device.CentrinoLaptop, Workers: 2,
	})
	// One subscription socket keeps the replica fresh and, through
	// ReportInterval, carries the periodic load reports.
	dsEnd, rsEnd := net.Pipe()
	defer dsEnd.Close()
	go ds.ServeConn(dsEnd)
	dialed := false
	dial := func() (io.ReadWriteCloser, error) {
		if dialed {
			return nil, errors.New("one connection only")
		}
		dialed = true
		return rsEnd, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan *renderservice.Session, 1)
	subDone := make(chan error, 1)
	go func() {
		subDone <- rs.SubscribeToDataResilient(ctx, dial, "s",
			renderservice.SubscribeOpts{ReportInterval: 3 * time.Millisecond},
			func(s *renderservice.Session) { ready <- s })
	}()
	replica := <-ready
	if _, err := replica.RenderFrame(64, 64, ""); err != nil {
		t.Fatal(err)
	}

	// Wait for the engine to record the laptop's report.
	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for !seen {
		for _, sl := range dist.LoadSnapshot() {
			if sl.Capacity.Name == "laptop" || sl.LastFPS > 0 {
				seen = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("load report never reached the migration engine")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cancel, then close the socket under the blocked read loop: the
	// subscription and its heartbeat end with it.
	cancel()
	rsEnd.Close()
	<-subDone
	// A healthy service triggers no migration.
	if moves := dist.PlanMigration(); len(moves) != 0 {
		t.Errorf("healthy service migrated: %v", moves)
	}
}
