// Package serve assembles the served stack — sharded engine, optional
// GC pacer, block server, optional NBD frontend — and tears it down.
// It is the one place the pieces are wired and ordered: cmd/adaptserve
// builds its flags into a Config, the harness experiments and the
// golden tests fill one by hand, and all of them run what Build
// returns. Policy and geometry arrive through the embedded
// prototype.ShardedConfig; the package knows no policy names.
package serve

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"time"

	"adapt/internal/gcsched"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/server"
)

// Config is the stack's configuration: its layers' config structs side
// by side, plus the one data directory they share. Build fills every
// field that refers to another layer, so nothing can be set two ways:
// Store.BackgroundGC is GC != nil; Engine.Engine.Telemetry is the one
// set and overwrites Server's, GC's and NBD's; Server.Engine,
// Server.GCSched and NBD.Backend are the layers built here; GC.P999
// reads that server's traced tail (0 while tracing is off, so it never
// exceeds GC.TargetP999). A served engine has no device queues, so
// GC.QueueFill stays nil.
type Config struct {
	Engine prototype.ShardedConfig
	Server server.Config
	GC     *gcsched.Config // nil: synchronous watermark GC, no pacer
	NBD    *nbd.Config     // nil: no NBD frontend
	// DataDir is the durable root (empty: RAM only): the segment log
	// goes to DataDir/engine — its sync discipline rides in
	// Engine.Engine.Durable, nil for the segfile defaults — and the
	// volume files to DataDir/volumes.
	DataDir string
}

// Stack is a built served stack; GC and NBD are nil when the Config
// left them out.
type Stack struct {
	Engine *prototype.Sharded
	Server *server.Server
	GC     *gcsched.Controller
	NBD    *nbd.Server
}

// Build constructs every layer and starts nothing: no listener is
// bound and the pacer is idle until Serve, so a caller can settle GC
// or take a baseline first. On error whatever was opened is closed.
func Build(cfg Config) (_ *Stack, err error) {
	ts := cfg.Engine.Engine.Telemetry
	cfg.Engine.Engine.Store.BackgroundGC = cfg.GC != nil
	if cfg.DataDir != "" {
		var durable segfile.Options
		if d := cfg.Engine.Engine.Durable; d != nil {
			durable = *d
		}
		durable.Dir = filepath.Join(cfg.DataDir, "engine")
		cfg.Engine.Engine.Durable = &durable
		cfg.Server.DataDir = filepath.Join(cfg.DataDir, "volumes")
	}
	eng, err := prototype.NewSharded(cfg.Engine)
	if err != nil {
		return nil, err
	}
	st := &Stack{Engine: eng}
	defer func() {
		if err != nil {
			st.Shutdown(context.Background())
		}
	}()

	if cfg.GC != nil {
		gcfg := *cfg.GC
		gcfg.Telemetry = ts
		// Built before the server, whose STAT reports it; read only by
		// the pacer goroutine, which Serve starts after st.Server is set.
		gcfg.P999 = func() time.Duration { return st.Server.TailP999() }
		if st.GC, err = gcsched.New(gcfg, eng.GCShards()); err != nil {
			return nil, err
		}
	}
	cfg.Server.Engine = eng
	cfg.Server.GCSched = st.GC
	cfg.Server.Telemetry = ts
	if st.Server, err = server.New(cfg.Server); err != nil {
		return nil, err
	}
	if cfg.NBD != nil {
		ncfg := *cfg.NBD
		ncfg.Backend = st.Server
		ncfg.Telemetry = ts
		if st.NBD, err = nbd.New(ncfg); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Serve starts the pacer and serves the wire protocol on wireLn and,
// when the stack has an NBD frontend, NBD on nbdLn. It returns once
// both listeners stopped accepting — nil after Shutdown closed them,
// which may still be draining: final state is Shutdown's to announce.
func (st *Stack) Serve(wireLn, nbdLn net.Listener) error {
	if st.GC != nil {
		st.GC.Start()
	}
	nbdDone := make(chan error, 1)
	if st.NBD != nil {
		go func() { nbdDone <- st.NBD.Serve(nbdLn) }()
	} else {
		nbdDone <- nil
	}
	err := st.Server.Serve(wireLn)
	if err != nil && st.NBD != nil {
		nbdLn.Close() // a dead wire listener takes the stack down, not half of it
	}
	return errors.Join(err, <-nbdDone)
}

// Shutdown drains and closes the stack in dependency order: the NBD
// frontend first (its in-flight ops need a backend that still admits),
// then the server (every received request is acked, volume files
// close), then the pacer, then the engine. Every step runs; the errors
// are joined. It is also the cleanup of a stack that never served.
func (st *Stack) Shutdown(ctx context.Context) error {
	var errs []error
	if st.NBD != nil {
		errs = append(errs, st.NBD.Shutdown(ctx))
	}
	if st.Server != nil {
		errs = append(errs, st.Server.Shutdown(ctx))
	}
	if st.GC != nil {
		st.GC.Stop()
	}
	return errors.Join(append(errs, st.Engine.Close())...)
}
