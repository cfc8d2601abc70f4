package enclave

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func newTestPlatform(t *testing.T, ias *IAS) *Platform {
	t.Helper()
	p, err := NewPlatform("platform-"+t.Name(), ias)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeasureCodeStable(t *testing.T) {
	a := MeasureCode("cyclosa", 1)
	b := MeasureCode("cyclosa", 1)
	if a != b {
		t.Error("same code identity produced different measurements")
	}
	if MeasureCode("cyclosa", 2) == a {
		t.Error("different version should change the measurement")
	}
	if MeasureCode("other", 1) == a {
		t.Error("different name should change the measurement")
	}
	if !strings.Contains(a.String(), a.String()[:4]) || len(a.String()) != 16 {
		t.Errorf("String() = %q", a.String())
	}
}

func TestECallGate(t *testing.T) {
	p := newTestPlatform(t, nil)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	e.RegisterECall("echo", func(args []byte) ([]byte, error) {
		return append([]byte("echo:"), args...), nil
	})

	out, err := e.Call("echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Errorf("ecall result = %q", out)
	}

	if _, err := e.Call("nope", nil); !errors.Is(err, ErrUnknownECall) {
		t.Errorf("unknown ecall err = %v", err)
	}

	st := e.Stats()
	if st.ECalls != 2 {
		t.Errorf("ECalls = %d, want 2 (failed lookups count)", st.ECalls)
	}
}

func TestOCall(t *testing.T) {
	p := newTestPlatform(t, nil)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	e.RegisterOCall("net.send", func(args []byte) ([]byte, error) {
		return []byte("sent"), nil
	})
	out, err := e.OCall("net.send", []byte("payload"))
	if err != nil || string(out) != "sent" {
		t.Fatalf("ocall = %q, %v", out, err)
	}
	if _, err := e.OCall("missing", nil); !errors.Is(err, ErrUnknownECall) {
		t.Errorf("missing ocall err = %v", err)
	}
	if e.Stats().OCalls != 2 {
		t.Errorf("OCalls = %d", e.Stats().OCalls)
	}
}

func TestDestroy(t *testing.T) {
	p := newTestPlatform(t, nil)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	e.RegisterECall("f", func([]byte) ([]byte, error) { return nil, nil })
	e.Destroy()
	if _, err := e.Call("f", nil); !errors.Is(err, ErrDestroyed) {
		t.Errorf("call after destroy err = %v", err)
	}
	if _, err := e.Seal([]byte("x")); !errors.Is(err, ErrDestroyed) {
		t.Errorf("seal after destroy err = %v", err)
	}
	if _, err := e.Quote(nil); !errors.Is(err, ErrDestroyed) {
		t.Errorf("quote after destroy err = %v", err)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := newTestPlatform(t, nil)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	secret := []byte("the table of past queries")
	blob, err := e.Seal(secret)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, secret) {
		t.Error("sealed blob contains plaintext")
	}
	back, err := e.Unseal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, secret) {
		t.Errorf("unsealed = %q", back)
	}
}

func TestSealBoundToMeasurementAndPlatform(t *testing.T) {
	p := newTestPlatform(t, nil)
	e1 := p.New(Config{Name: "cyclosa", Version: 1})
	e2 := p.New(Config{Name: "cyclosa", Version: 2}) // different code
	same := p.New(Config{Name: "cyclosa", Version: 1})

	blob, err := e1.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Unseal(blob); !errors.Is(err, ErrSealCorrupted) {
		t.Errorf("different measurement unseal err = %v, want ErrSealCorrupted", err)
	}
	if _, err := same.Unseal(blob); err != nil {
		t.Errorf("same identity on same platform should unseal: %v", err)
	}

	// Different platform, same code identity: must fail (per-platform seal
	// secret).
	p2, err := NewPlatform("other-platform", nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign := p2.New(Config{Name: "cyclosa", Version: 1})
	if _, err := foreign.Unseal(blob); !errors.Is(err, ErrSealCorrupted) {
		t.Errorf("cross-platform unseal err = %v, want ErrSealCorrupted", err)
	}
}

func TestSealTamperDetection(t *testing.T) {
	p := newTestPlatform(t, nil)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if _, err := e.Unseal(blob); !errors.Is(err, ErrSealCorrupted) {
		t.Errorf("tampered unseal err = %v", err)
	}
	if _, err := e.Unseal([]byte("short")); !errors.Is(err, ErrSealCorrupted) {
		t.Errorf("short blob unseal err = %v", err)
	}
}

func TestQuoteAndIASVerify(t *testing.T) {
	ias := NewIAS()
	p := newTestPlatform(t, ias)
	e := p.New(Config{Name: "cyclosa", Version: 1})

	report := []byte("handshake-key-hash")
	q, err := e.Quote(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := ias.Verify(q); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	if !bytes.HasPrefix(q.ReportData[:], report) {
		t.Error("report data not embedded")
	}
	if ias.Verifications() != 1 {
		t.Errorf("Verifications = %d", ias.Verifications())
	}
}

func TestIASRejectsUnknownAndForgedQuotes(t *testing.T) {
	ias := NewIAS()
	p := newTestPlatform(t, ias)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	q, err := e.Quote([]byte("rd"))
	if err != nil {
		t.Fatal(err)
	}

	// Unknown platform.
	rogue, err := NewPlatform("rogue", nil) // not registered with IAS
	if err != nil {
		t.Fatal(err)
	}
	rq, err := rogue.New(Config{Name: "cyclosa", Version: 1}).Quote([]byte("rd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ias.Verify(rq); !errors.Is(err, ErrUnknownPlatform) {
		t.Errorf("rogue platform err = %v", err)
	}

	// Tampered measurement breaks the signature.
	forged := *q
	forged.Measurement[0] ^= 0xff
	if err := ias.Verify(&forged); !errors.Is(err, ErrBadQuoteSignature) {
		t.Errorf("forged quote err = %v", err)
	}

	// Tampered report data breaks the signature (prevents quote replay for a
	// different key exchange).
	forged2 := *q
	forged2.ReportData[0] ^= 0xff
	if err := ias.Verify(&forged2); !errors.Is(err, ErrBadQuoteSignature) {
		t.Errorf("replayed quote err = %v", err)
	}
}

func TestIASRevocation(t *testing.T) {
	ias := NewIAS()
	p := newTestPlatform(t, ias)
	e := p.New(Config{Name: "cyclosa", Version: 1})
	q, err := e.Quote(nil)
	if err != nil {
		t.Fatal(err)
	}
	ias.Revoke(p.ID())
	if err := ias.Verify(q); !errors.Is(err, ErrRevokedPlatform) {
		t.Errorf("revoked platform err = %v", err)
	}
}

func TestVerifierKnownGoodList(t *testing.T) {
	ias := NewIAS()
	p := newTestPlatform(t, ias)
	good := p.New(Config{Name: "cyclosa", Version: 1})
	bad := p.New(Config{Name: "evil", Version: 1})

	v := NewVerifier(ias, MeasureCode("cyclosa", 1))

	gq, err := good.Quote(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(gq); err != nil {
		t.Errorf("known-good enclave rejected: %v", err)
	}

	bq, err := bad.Quote(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(bq); !errors.Is(err, ErrUntrustedEnclave) {
		t.Errorf("unknown enclave err = %v", err)
	}
}

func TestEPCWithinLimitNoFaults(t *testing.T) {
	epc := NewEPC(1 << 20)
	epc.Alloc(512 << 10)
	if epc.PageFaults() != 0 {
		t.Errorf("faults within limit = %d", epc.PageFaults())
	}
	epc.Free(512 << 10)
	if epc.Used() != 0 {
		t.Errorf("used after free = %d", epc.Used())
	}
}

func TestEPCPagingCliff(t *testing.T) {
	epc := NewEPC(1 << 20) // 1 MiB
	epc.Alloc(1 << 20)     // fill
	if epc.PageFaults() != 0 {
		t.Fatalf("faults at limit = %d", epc.PageFaults())
	}
	epc.Alloc(1 << 20) // 1 MiB over
	faults := epc.PageFaults()
	if faults == 0 {
		t.Fatal("no faults beyond EPC limit")
	}
	wantPages := uint64((1 << 20) / pageSize)
	if faults != wantPages {
		t.Errorf("faults = %d, want %d", faults, wantPages)
	}
	// Every further page while oversubscribed faults too.
	epc.Alloc(512 << 10)
	if got := epc.PageFaults() - faults; got != (512<<10)/pageSize {
		t.Errorf("faults while oversubscribed = %d, want %d", got, (512<<10)/pageSize)
	}
}

func TestEPCDefaults(t *testing.T) {
	epc := NewEPC(0)
	if epc.Limit() != DefaultEPCLimit {
		t.Errorf("default limit = %d", epc.Limit())
	}
	epc.Alloc(-5)
	epc.Free(-5)
	if epc.Used() != 0 {
		t.Error("negative alloc/free should be ignored")
	}
	epc.Free(100)
	if epc.Used() != 0 {
		t.Error("over-free should clamp to 0")
	}
}

func TestEnclaveEPCIntegration(t *testing.T) {
	p := newTestPlatform(t, nil)
	e := p.New(Config{Name: "cyclosa", Version: 1, EPCLimitBytes: 2 << 20})
	st := e.Stats()
	if st.EPCLimit != 2<<20 {
		t.Errorf("EPCLimit = %d", st.EPCLimit)
	}
	e.EPC().Alloc(3 << 20)
	st = e.Stats()
	if st.PageFaults == 0 || st.EPCUsed != 3<<20 {
		t.Errorf("stats after oversubscribe = %+v", st)
	}
}
