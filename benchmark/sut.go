package main

import (
	"errors"
	"fmt"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
)

// sut is the system under test for one workload: a core.Network, and for the
// *_tcp workloads the nettrans servers and conduit its forwards cross. It is
// assembled only from public functions of the layers.
type sut struct {
	net       *core.Network
	nodes     []*core.Node
	ids       []string
	analyzers []*sensitivity.Analyzer
	servers   []*nettrans.Server
	tcp       *nettrans.TCPConduit
}

// alwaysSensitive is the detector of the non-adaptive workloads: every query
// gets k = kmax, with no dictionary lookup.
type alwaysSensitive struct{}

func (alwaysSensitive) IsSensitive([]string) bool { return true }

// newAnalyzer builds node i's analyzer: the combined WordNet+LDA detector and
// a linkability history primed with the user's train queries (the local
// profile of §V-A2) — or, without the substrate, the constant detector.
func newAnalyzer(w *workload, wd *world, i int) *sensitivity.Analyzer {
	if !w.adaptive {
		return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, worldKMax)
	}
	link := sensitivity.NewLinkability(0)
	link.AddAll(wd.train[i])
	det := sensitivity.NewCombinedDetector(wd.wordnet, wd.lda, worldLDATermsPerTop, worldSensitiveTopics)
	return sensitivity.NewAnalyzer(det, link, worldKMax)
}

// newBackend builds one relay's engine connection. tr, when non-nil, puts a
// span wrapper outside and inside the stack.
func newBackend(w *workload, wd *world, tr *tracer) core.Backend {
	var engine backend.Engine = core.NullBackend{}
	if w.adaptive {
		engine = wd.engine
	}
	if tr != nil {
		engine = tracedEngine{inner: engine, tr: tr, kind: spanEngine}
	}
	var be core.Backend = engine
	if w.adaptive {
		be = backend.NewStack(engine, backend.Policy{})
	}
	if tr != nil {
		be = tracedEngine{inner: be, tr: tr, kind: spanBackend}
	}
	return be
}

// newSUT is the system set-up: analyzers, network (platforms, IAS, overlay
// convergence), table bootstrap and, with hosts > 0, the loopback servers
// and the pooled TCP conduit. Everything it does is charged to setup_s.
func newSUT(w *workload, wd *world, tr *tracer) (*sut, error) {
	s := &sut{analyzers: make([]*sensitivity.Analyzer, w.nodes)}
	index := make(map[string]int, w.nodes)
	for i := 0; i < w.nodes; i++ {
		index[string(rps.Name(i))] = i
	}

	var hookErr error
	hook := func(direct transport.Conduit) transport.Conduit {
		// The server side of every delivery ends in the direct conduit;
		// the traced run puts the core.relay_serve seam around it.
		handler := direct
		if tr != nil {
			handler = tracedConduit{inner: direct, tr: tr, kind: spanServe}
		}
		client := handler
		if w.hosts > 0 {
			hookErr = s.startTransport(w, handler)
			if hookErr != nil {
				return direct
			}
			client = s.tcp
		}
		if tr != nil {
			client = tracedConduit{inner: client, tr: tr, kind: spanDeliver}
		}
		return client
	}
	opts := core.NetworkOptions{
		Nodes: w.nodes,
		Seed:  wd.seed,
		AnalyzerFor: func(id string) *sensitivity.Analyzer {
			i := index[id]
			s.analyzers[i] = newAnalyzer(w, wd, i)
			return s.analyzers[i]
		},
		BackendFor: func(string) core.Backend { return newBackend(w, wd, tr) },
	}
	if w.hosts > 0 || tr != nil {
		opts.Conduit = hook
	}
	net, err := core.NewNetwork(opts)
	if err == nil {
		err = hookErr
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	s.net = net
	net.BootstrapFromTrending(wd.uni, bootstrapPerNode, wd.seed)
	s.ids = net.NodeIDs()
	for i, id := range s.ids {
		if index[id] != i {
			s.close()
			return nil, fmt.Errorf("set up %s: node %d is %s, not %s", w.name, i, id, rps.Name(i))
		}
		s.nodes = append(s.nodes, net.Node(id))
	}
	return s, nil
}

// startTransport starts w.hosts loopback servers whose data plane is handler
// and the one pooled conduit every node's forwards leave through.
func (s *sut) startTransport(w *workload, handler transport.Conduit) error {
	addrs := make(map[string]string, w.nodes)
	for h := 0; h < w.hosts; h++ {
		srv := nettrans.NewServer(nettrans.ServerConfig{ID: fmt.Sprintf("bench-host-%d", h), Handler: handler})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return fmt.Errorf("start host %d: %w", h, err)
		}
		s.servers = append(s.servers, srv)
		for n := h; n < w.nodes; n += w.hosts {
			addrs[string(rps.Name(n))] = srv.Addr().String()
		}
	}
	s.tcp = nettrans.NewTCPConduit(nettrans.ConduitConfig{
		Resolve: nettrans.StaticResolver(addrs),
		// RequestTimeout 30 s: a stall becomes a failed op inside the
		// workload's wall-clock cap, not a hang.
		PoolConfig: nettrans.PoolConfig{ID: "bench-pool", RequestTimeout: 30 * time.Second},
	})
	return nil
}

// close stops the conduit's connections and the servers and waits for them.
func (s *sut) close() error {
	var errs []error
	if s.tcp != nil {
		errs = append(errs, s.tcp.Close())
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	return errors.Join(errs...)
}

// tracedConduit records one span per Deliver crossing: spanDeliver around
// the conduit a node's forwards use, spanServe around the server's handler.
type tracedConduit struct {
	inner transport.Conduit
	tr    *tracer
	kind  spanKind
}

func (c tracedConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	start := c.tr.clock()
	resp, injected, err := c.inner.Deliver(from, to, payload, now)
	c.tr.record(c.kind, now, to, start)
	if c.kind == spanDeliver {
		c.tr.recordBytes.Add(uint64(len(payload) + len(resp)))
	}
	return resp, injected, err
}

// tracedEngine records one span per engine call: spanBackend outside the
// backend.Stack, spanEngine inside it.
type tracedEngine struct {
	inner backend.Engine
	tr    *tracer
	kind  spanKind
}

func (e tracedEngine) Search(source, query string, now time.Time) ([]searchengine.Result, error) {
	start := e.tr.clock()
	page, err := e.inner.Search(source, query, now)
	e.tr.record(e.kind, now, source, start)
	return page, err
}

// Stats forwards the wrapped stack's counters so core.Node.BackendStats
// still finds them in the traced run.
func (e tracedEngine) Stats() backend.Stats {
	if s, ok := e.inner.(interface{ Stats() backend.Stats }); ok {
		return s.Stats()
	}
	return backend.Stats{}
}
