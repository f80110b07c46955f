package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

// inproc is adaptserve's wiring (cmd/adaptserve/main.go at its defaults,
// with the flags serverArgs passes) rebuilt inside the bench process so
// the timing decorators can sit on its seams. Keep it in step with that
// file: it is a copy, and the traced run only describes the real server
// while the two agree.
type inproc struct {
	eng      *prototype.Sharded
	srv      *server.Server
	nsrv     *nbd.Server
	ep       endpoints
	served   chan error
	shardCfg lss.Config // one shard's store geometry, for the rungs
}

// startInproc boots the server on dataDir with blocks of capacity. rec
// may be nil (tests): the wiring is then undecorated.
func startInproc(dataDir string, blocks int64, withNBD bool, rec *recorder) (*inproc, error) {
	cfg := harness.StoreConfig(blocks, lss.Greedy)
	ts := telemetry.New(telemetry.Options{})
	p := &inproc{served: make(chan error, 2)}
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: 50 * time.Microsecond,
			Telemetry:   ts,
			Durable:     &segfile.Options{Dir: filepath.Join(dataDir, "engine"), Sync: segfile.SyncOnSeal},
		},
		Shards: shards,
		PolicyFactory: func(_ int, scfg lss.Config) (lss.Policy, error) {
			p.shardCfg = scfg
			pol, err := harness.BuildPolicy(harness.PolicyADAPT, scfg)
			if err != nil || rec == nil {
				return pol, err
			}
			return wrapPolicy(pol, rec)
		},
	})
	if err != nil {
		return nil, err
	}
	p.eng = eng
	var ingest prototype.Ingest = eng
	if rec != nil {
		ingest = &tracedIngest{Ingest: eng, rec: rec, volBlocks: blocks / volumes}
	}
	p.srv, err = server.New(server.Config{
		Engine:      ingest,
		Volumes:     volumes,
		DataDir:     filepath.Join(dataDir, "volumes"),
		MaxInflight: 64,
		Batch:       true,
		Telemetry:   ts,
		Trace:       server.TraceConfig{Enabled: true, Threshold: 500 * time.Microsecond},
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	listen := func(isNBD bool) (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil || rec == nil {
			return ln, err
		}
		return tracedListener{Listener: ln, rec: rec, nbd: isNBD}, nil
	}
	if withNBD {
		var backend server.VolumeBackend = p.srv
		if rec != nil {
			backend = &tracedBackend{VolumeBackend: p.srv, rec: rec}
		}
		p.nsrv, err = nbd.New(nbd.Config{Backend: backend, Telemetry: ts})
		if err != nil {
			eng.Close()
			return nil, err
		}
		nln, err := listen(true)
		if err != nil {
			eng.Close()
			return nil, err
		}
		p.ep.nbd = nln.Addr().String()
		go func() { p.served <- p.nsrv.Serve(nln) }()
	} else {
		p.served <- nil
	}
	ln, err := listen(false)
	if err != nil {
		p.stop(false)
		return nil, err
	}
	p.ep.wire = ln.Addr().String()
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

// stop drains both frontends. With closeEngine it then closes the
// engine as adaptserve does on SIGTERM; without, the engine is
// abandoned as SIGKILL would leave it — no final seal or checkpoint, so
// whoever opens the directory next must roll the log forward.
func (p *inproc) stop(closeEngine bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if p.nsrv != nil {
		keep(p.nsrv.Shutdown(ctx))
	}
	if p.srv != nil {
		keep(p.srv.Shutdown(ctx))
	}
	if p.ep.wire != "" {
		keep(<-p.served)
		keep(<-p.served)
	}
	if closeEngine {
		keep(p.eng.Close())
	}
	if first != nil {
		return fmt.Errorf("in-process server shutdown: %w", first)
	}
	return nil
}
