// Package cyclosa is a research-grade reproduction of CYCLOSA, the
// decentralized private web search system of Pires et al. (ICDCS 2018):
// "CYCLOSA: Decentralizing Private Web Search Through SGX-Based Browser
// Extensions".
//
// CYCLOSA protects a user's search queries with two complementary
// properties. Unlinkability: queries reach the search engine through relays
// run by other users, so the engine never sees the requester's identity.
// Indistinguishability: alongside every real query the client sends an
// adaptive number k of fake queries — real past queries of other users,
// replayed from an enclave-resident table — through distinct relays, so an
// engine-side adversary cannot tell which incoming query is real or who sent
// it. Because real and fake queries travel separately (no OR-merging), the
// real query's results come back untouched: accuracy is perfect. Because
// every node relays for the others, the per-node query rate at the engine
// stays below bot-detection thresholds: the system scales where centralized
// proxies get blocked.
//
// The package wires together the full stack of substrates implemented under
// internal/: a simulated SGX enclave runtime with remote attestation
// (internal/enclave), attested secure channels (internal/securechan),
// gossip-based random peer sampling (internal/rps), the sensitivity analysis
// with its WordNet-like lexical database and from-scratch LDA
// (internal/sensitivity, internal/wordnet, internal/lda), a deterministic
// search engine with bot protection (internal/searchengine), and the five
// baselines the paper compares against (internal/baselines/...).
//
// # Quick start
//
//	net, err := cyclosa.New(cyclosa.Config{Nodes: 20, Seed: 42})
//	if err != nil { ... }
//	node := net.Node(0)
//	res, err := node.Search("some query terms")
//	if err != nil { ... }
//	for _, r := range res.Results {
//		fmt.Println(r.URL, r.Title)
//	}
//
// The evaluation harness that regenerates every table and figure of the
// paper lives in internal/eval and is driven by cmd/cyclosa-bench and the
// root benchmark suite (bench_test.go), whose benchmarks each report a
// reproduced quantity and fail when the paper's claim about it does not
// hold.
//
// # Concurrency model
//
// The deployment is built for many clients searching at once; the paper's
// headline numbers (relay capacity, latency under load) only exist under
// concurrency, so the hot path carries no global lock. The division of
// labor mirrors the SGX design:
//
//   - The enclave owns the security-critical state: the responder side of
//     each attested session and the past-query table. Both are reachable
//     only through the ecall gate; sessions sit behind a read-mostly lock
//     (lookup on every forward, insert only on first contact with a peer)
//     and the table takes a short lock per append.
//   - The host owns the routing state, and shards it: the (client, relay)
//     session-pair map is spread over 64 independently locked shards, the
//     request counter is a single atomic, node and overlay membership are
//     immutable after construction, and liveness is a read-mostly RWMutex —
//     Kill, Alive and the continuous gossip loop (StartGossip/StopGossip)
//     are safe to call while forwards are in flight.
//   - One forward on one (client, relay) pair is a critical section of that
//     pair alone: the secure channel enforces strictly increasing record
//     sequence numbers, so records of a pair cannot interleave, but any
//     number of distinct pairs proceed in parallel — the AES-GCM work,
//     which dominates the relay hot path, runs on all cores.
//
// Concurrent searches are driven by internal/workload: N client goroutines
// spend a fixed operation budget on fixed, Zipf-popularity or trace-replay
// query streams, each client drawing from its own deterministic stream so a
// run issues the same multiset of queries regardless of scheduling (the
// property the race-proof determinism tests in internal/core assert). The
// package counts outcomes and holds no clock; the Fig 8a/8b replays, the
// churn ablation and the simnet soaks run on it.
//
// # Performance
//
// The forward hot path — client encode, pad, encrypt → relay ecall:
// decrypt, record, engine ocall, encrypt → client decrypt, decode — is
// JSON-free and effectively zero-allocation at steady state (two
// query-string copies per forward, nothing else).
//
// Wire format (version 1, see internal/core/messages.go): every frame
// opens with a 1-byte version; fixed 64-bit fields are big-endian; strings
// and byte fields are length-prefixed with unsigned varints. The forward
// request is [ver | requestID(8B) | query], padded behind a 4-byte length
// prefix to a constant 512 bytes so a link observer cannot distinguish
// requests by size (§IV). The response is [ver | requestID(8B) |
// engineError | result page], where the result page uses the
// internal/searchengine binary encoding and is spliced verbatim from the
// engine ocall without re-encoding. The ecall/ocall gate frames carry
// [ver | nowNano(8B) | identity | payload]. Decoders reject unknown
// versions, truncated frames, oversized length fields and trailing bytes
// before allocating; fuzz targets in internal/core and
// internal/searchengine hold that line.
//
// Buffer ownership: scratch buffers come from a sync.Pool (internal/core)
// or live in the per-pair session state. A pooled buffer is owned by its
// getter until putBuf; slices decoded from it must be copied before the
// put. The record returned by a relay's "forward" ecall points into
// relay-owned scratch and is valid only until the next forward from the
// same peer — the client decrypts it into its own pair buffer inside the
// pair critical section. securechan.Session.EncryptAppend/DecryptAppend
// append into caller-provided buffers and allocate nothing once those
// buffers have grown to the working size.
//
// Allocation budgets of this path are pinned by AllocsPerRun tests; what a
// relay sustains, before and after a change, is measured by the
// repository's one ruler, on real sockets, bounded and seeded:
//
//	bash benchmark/run.sh --workload relay_forward_mux_tcp --seed 1 --seconds 10 --trace 0
//
// # Testing & fault model
//
// Resilience is CYCLOSA's headline claim over centralized designs, so the
// repository carries a deterministic fault-injection layer,
// internal/simnet, wired in behind the transport.Conduit seam that
// core.Network delivers every forward record through. A seeded Sim injects
// node crashes and restarts, asymmetric partitions, message drops,
// ciphertext bit flips, frame truncation, record replay, Byzantine garbage
// and oversized responses, and latency spikes — every decision a pure
// function of the seed, so a failing run replays exactly. A failed
// exchange breaks the pair's attested session (lost or forged records
// desynchronize the AEAD counters) and the next forward re-attests, so
// tampering degrades a pair but can never wedge it; the retry layer
// blacklists misbehaving relays immediately (no timeout charge) and
// unresponsive ones after the deadline (§VI-b).
//
// Protocol invariants are machine-checked during chaos runs: plaintext
// queries never appear on the wire or cross the enclave gate outside the
// modelled engine tunnel (a sentinel substring makes leaks greppable),
// AEAD nonce counters never repeat within a session, every forged delivery
// is rejected and accounted, per-node statistics stay consistent with
// observed conduit traffic, and failures are always clean protocol errors.
// See internal/simnet's package documentation for the full catalog, the
// invariant list and replay instructions; the entry points are
//
//	go test -run TestSimnetChaos ./internal/simnet -race
//	go run ./cmd/cyclosa-bench -exp chaos -seed 7
//
// # Networked deployment
//
// internal/nettrans is the real-socket data plane: a production TCP
// transport implementing the same transport.Conduit seam, so the unchanged
// protocol — and the unchanged chaos machinery — runs over real
// connections. Its frame protocol is versioned and length-prefixed
// (16-byte header: magic, version, type, stream ID, length), with stream
// IDs multiplexing many in-flight exchanges over one connection; frames
// beyond the limit, with bad magic or an unknown version/type are rejected
// before any allocation sized by the untrusted field. A Server provides
// per-connection read loops with idle deadlines, bounded in-flight
// dispatch and graceful drain; a per-peer connection Pool provides
// dial-on-demand, reconnect backoff, idle reaping and pending-stream
// backpressure; TCPConduit adapts the two to the Conduit contract, whose
// ownership rules (request copied during the call, response stable until
// the pair's next delivery) are auditable at runtime with
// transport.NewOwnershipChecker. Because conduits stack, simnet can inject
// its whole fault catalog above the TCP layer
// (simnet.ChaosOptions.Transport): the chaos suite passes with deliveries
// flowing over loopback sockets.
//
// cmd/cyclosa-node turns this into a deployment, and every process of it
// hosts one core.Node (core.NewHostedNode) whose relays are the other
// processes: a long-running daemon (-mode node) relaying for many
// concurrent clients, each pair over its own attested securechan session,
// with graceful SIGTERM drain; and a client (-mode client -n N) — the
// paper's browser extension — running N protected searches, each fanned
// out as the real query plus k fakes over k+1 distinct daemons.
// Membership is decentralized: a daemon
// started with only -bootstrap seed addresses joins the gossip overlay
// (nettrans.Membership over gossip frames), discovers every other daemon
// through rps view exchanges, re-attests peers as they enter its view
// (the attestation directory) and serves its own view over -mode view
// introspection — no static peer list anywhere. The gossip experiment
// (cyclosa-bench -exp gossip) measures the membership convergence and
// records it in BENCH_gossip.json; the loopback-TCP round trip is the
// benchmark's relay_forward_mux_tcp workload.
package cyclosa
