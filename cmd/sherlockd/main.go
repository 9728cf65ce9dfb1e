// Command sherlockd serves synchronization-operation inference over HTTP:
// a bounded job queue with a worker pool, a content-addressed result cache
// (resubmitting an identical workload is answered byte-identically from
// memory), and a Prometheus-format /metrics endpoint.
//
// Usage:
//
//	sherlockd [-addr :8419] [-workers N] [-queue N] [-cache N]
//	          [-job-timeout 2m] [-drain-timeout 30s] [-rounds 3]
//	          [-corpus DIR] [-pprof]
//	          [-node-id ID -peers ID=URL,ID=URL,...]
//	          [-cluster-replicas 2] [-anti-entropy 5s]
//
// -node-id and -peers turn the daemon into one member of a sherlockd
// cluster: jobs route to their content key's owner over consistent
// hashing, corpus uploads replicate to -cluster-replicas nodes, results
// cached anywhere are hits everywhere, and the corpus self-repairs by
// anti-entropy every -anti-entropy interval. The -peers list names
// EVERY member (including this node) as name=http://host:port pairs and
// must be identical on all members. A clustered node needs a fixed
// -addr so peers can reach it.
//
// -pprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/ on the same listener. Off by default: the profile
// endpoints expose internals and can stall a loaded daemon, so they are
// opt-in for diagnosis sessions only.
//
// -corpus persists the content-addressed trace corpus (POST /v1/traces,
// trace_keys job submission) across restarts; without it uploads land in
// a per-process temporary directory.
//
// The daemon prints "listening on HOST:PORT" once the socket is bound
// (pass -addr 127.0.0.1:0 to let the kernel pick a free port, as the CI
// smoke test does). SIGTERM/SIGINT triggers a graceful drain: submissions
// are refused with 503 while admitted jobs run to completion, bounded by
// -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sherlock/internal/cluster"
	"sherlock/internal/server"
)

func main() {
	cfg := server.DefaultConfig()
	var (
		addr         = flag.String("addr", ":8419", "listen address (host:0 picks a free port)")
		workers      = flag.Int("workers", cfg.Workers, "worker pool size (concurrent campaigns)")
		queueSize    = flag.Int("queue", cfg.QueueSize, "job queue capacity (full queue => 429)")
		cacheCap     = flag.Int("cache", cfg.CacheCapacity, "result cache capacity (entries)")
		jobTimeout   = flag.Duration("job-timeout", cfg.JobTimeout, "per-job wall-clock bound (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", cfg.DrainTimeout, "graceful shutdown bound (0 = wait forever)")
		rounds       = flag.Int("rounds", cfg.Inference.Rounds, "default campaign rounds (jobs may override)")
		corpusDir    = flag.String("corpus", "", "trace corpus directory (empty = ephemeral per-process temp dir)")
		withPprof    = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		nodeID       = flag.String("node-id", "", "cluster member name (empty = standalone)")
		peerList     = flag.String("peers", "", "comma-separated name=http://host:port for EVERY cluster member")
		replicas     = flag.Int("cluster-replicas", 2, "copies of each corpus blob / cached result across the cluster")
		antiEntropy  = flag.Duration("anti-entropy", 5*time.Second, "corpus manifest-diff repair interval")
	)
	flag.Parse()
	cfg.Workers = *workers
	cfg.QueueSize = *queueSize
	cfg.CacheCapacity = *cacheCap
	cfg.JobTimeout = *jobTimeout
	cfg.DrainTimeout = *drainTimeout
	cfg.Inference.Rounds = *rounds
	cfg.CorpusDir = *corpusDir

	srv, err := server.New(cfg)
	die(err)

	var cl *cluster.Cluster
	handler := srv.Handler()
	if *nodeID != "" {
		peers, err := parsePeers(*peerList)
		die(err)
		cl, err = cluster.New(cluster.Config{
			NodeID:              *nodeID,
			Peers:               peers,
			Replicas:            *replicas,
			AntiEntropyInterval: *antiEntropy,
			VerifyEvery:         12, // full local corpus audit about once a minute
		}, srv)
		die(err)
		handler = cl.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	die(err)
	fmt.Printf("sherlockd: listening on %s\n", ln.Addr())
	if cl != nil {
		fmt.Printf("sherlockd: %s\n", cl)
		cl.Start()
	}
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		die(err)
	case <-ctx.Done():
	}
	stop()

	fmt.Println("sherlockd: draining...")
	drainCtx := context.Background()
	if cfg.DrainTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(drainCtx, cfg.DrainTimeout)
		defer cancel()
	}
	// Flip the drain signal before the HTTP listener closes so parked
	// watch long-polls return immediately instead of holding
	// hs.Shutdown until their own timeouts; then stop accepting HTTP,
	// let admitted jobs finish, and finally stop the cluster loops.
	srv.BeginDrain()
	_ = hs.Shutdown(drainCtx)
	err = srv.Shutdown(drainCtx)
	if cl != nil {
		cl.Stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sherlockd: drain timed out, in-flight jobs canceled:", err)
		os.Exit(1)
	}
	fmt.Println("sherlockd: drained, bye")
}

// parsePeers parses "n1=http://h1:p1,n2=http://h2:p2" into a member map.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-node-id requires -peers naming every cluster member")
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want name=http://host:port", part)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			url = "http://" + url
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("duplicate -peers member %q", name)
		}
		peers[name] = url
	}
	return peers, nil
}

func die(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sherlockd:", err)
		os.Exit(1)
	}
}
