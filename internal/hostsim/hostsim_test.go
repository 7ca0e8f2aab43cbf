package hostsim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/signature"
	"softreputation/internal/vclock"
)

func testSpec() Spec {
	return Spec{
		FileName: "app.exe",
		Vendor:   "Acme Corp",
		Version:  "1.2.3",
		Seed:     7,
		Profile:  Profile{Category: core.CategoryLegitimate, TrueScore: 8},
	}
}

func TestBuildAndParseMeta(t *testing.T) {
	exe := Build(testSpec())
	meta, err := exe.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.FileName != "app.exe" || meta.Vendor != "Acme Corp" || meta.Version != "1.2.3" {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.FileSize != int64(len(exe.Content)) {
		t.Fatal("FileSize must equal image size")
	}
	if meta.ID != exe.ID() {
		t.Fatal("meta ID must be the content hash")
	}
	if !meta.VendorKnown() {
		t.Fatal("vendor must be known")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(testSpec())
	b := Build(testSpec())
	if a.ID() != b.ID() {
		t.Fatal("same spec must produce the same image")
	}
	spec := testSpec()
	spec.Seed = 8
	c := Build(spec)
	if a.ID() == c.ID() {
		t.Fatal("different seed must change the image")
	}
}

func TestStrippedVendor(t *testing.T) {
	spec := testSpec()
	spec.Vendor = ""
	exe := Build(spec)
	meta, err := exe.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.VendorKnown() {
		t.Fatal("stripped vendor must be unknown")
	}
}

func TestParseMetaErrors(t *testing.T) {
	if _, err := ParseMeta([]byte("NOPE")); !errors.Is(err, ErrBadImage) {
		t.Fatalf("bad magic err = %v", err)
	}
	exe := Build(testSpec())
	if _, err := ParseMeta(exe.Content[:8]); !errors.Is(err, ErrBadImage) {
		t.Fatalf("truncated image err = %v", err)
	}
	if _, err := ParseMeta(nil); !errors.Is(err, ErrBadImage) {
		t.Fatalf("nil image err = %v", err)
	}
}

func TestMutatePolymorphic(t *testing.T) {
	exe := Build(testSpec())
	rng := rand.New(rand.NewSource(1))
	seen := map[core.SoftwareID]bool{exe.ID(): true}
	cur := exe
	for i := 0; i < 20; i++ {
		cur = cur.Mutate(rng)
		if seen[cur.ID()] {
			t.Fatal("mutation produced a duplicate identity")
		}
		seen[cur.ID()] = true
		// Metadata and ground truth are preserved across mutations.
		meta, err := cur.Meta()
		if err != nil {
			t.Fatalf("mutation %d corrupted the image: %v", i, err)
		}
		if meta.Vendor != "Acme Corp" || meta.FileName != "app.exe" {
			t.Fatalf("mutation %d changed metadata: %+v", i, meta)
		}
		if cur.Profile != exe.Profile {
			t.Fatal("mutation changed the ground-truth profile")
		}
	}
}

func TestMutateDropsSignature(t *testing.T) {
	signer, _ := signature.NewSigner("Acme Corp")
	exe := Build(testSpec())
	exe.SignWith(signer)
	if exe.Sig.IsZero() {
		t.Fatal("signature missing after SignWith")
	}
	mut := exe.Mutate(rand.New(rand.NewSource(2)))
	if !mut.Sig.IsZero() {
		t.Fatal("mutated image kept the stale signature")
	}
}

func TestHostExecNoHook(t *testing.T) {
	h := NewHost("pc-1")
	h.Install("C:/app.exe", Build(testSpec()))
	res, err := h.Exec("C:/app.exe", vclock.Epoch)
	if err != nil || !res.Allowed {
		t.Fatalf("exec without hook: %+v, %v", res, err)
	}
}

func TestHostExecMissingFile(t *testing.T) {
	h := NewHost("pc-1")
	if _, err := h.Exec("C:/nope.exe", vclock.Epoch); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("missing file err = %v", err)
	}
}

func TestHostHookReceivesRequest(t *testing.T) {
	h := NewHost("pc-1")
	exe := Build(testSpec())
	h.Install("C:/app.exe", exe)
	var got ExecRequest
	h.SetHook(HookFunc(func(req ExecRequest) Decision {
		got = req
		return Deny
	}))
	now := vclock.Epoch.Add(time.Hour)
	res, err := h.Exec("C:/app.exe", now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowed {
		t.Fatal("deny decision ignored")
	}
	if got.Host != "pc-1" || got.Path != "C:/app.exe" || !got.At.Equal(now) {
		t.Fatalf("request = %+v", got)
	}
	if core.ComputeSoftwareID(got.Content) != exe.ID() {
		t.Fatal("hook did not receive the image content")
	}
}

func TestHostDenyCriticalCrashes(t *testing.T) {
	h := NewHost("pc-1")
	osv, _ := signature.NewSigner("Microsoft")
	system := InstallStandardSystem(h, osv)
	if len(system) != len(SystemProcessNames) {
		t.Fatalf("installed %d system processes", len(system))
	}
	h.SetHook(HookFunc(func(req ExecRequest) Decision { return Deny }))

	res, err := h.Exec(SystemProcessNames[0], vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrashedHost || !h.Crashed() {
		t.Fatal("denying a critical process must crash the host")
	}
	// A crashed host refuses further executions.
	if _, err := h.Exec(SystemProcessNames[1], vclock.Epoch); !errors.Is(err, ErrHostCrashed) {
		t.Fatalf("exec on crashed host err = %v", err)
	}
}

func TestHostDenyNonCriticalSafe(t *testing.T) {
	h := NewHost("pc-1")
	h.Install("C:/adware.exe", Build(testSpec()))
	h.SetHook(HookFunc(func(req ExecRequest) Decision { return Deny }))
	res, err := h.Exec("C:/adware.exe", vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedHost || h.Crashed() {
		t.Fatal("denying a normal program must not crash the host")
	}
}

func TestHostHarmAccrual(t *testing.T) {
	h := NewHost("pc-1")
	spec := testSpec()
	spec.Profile.HarmPerRun = 2.5
	spec.Profile.Category = core.CategoryParasite
	h.Install("C:/bad.exe", Build(spec))

	h.Exec("C:/bad.exe", vclock.Epoch)
	h.Exec("C:/bad.exe", vclock.Epoch)
	if h.Harm() != 5 {
		t.Fatalf("harm = %v, want 5", h.Harm())
	}
	// Denied executions accrue no harm.
	h.SetHook(HookFunc(func(req ExecRequest) Decision { return Deny }))
	h.Exec("C:/bad.exe", vclock.Epoch)
	if h.Harm() != 5 {
		t.Fatalf("harm after denial = %v, want 5", h.Harm())
	}
}

func TestVerdictPassThrough(t *testing.T) {
	spec := testSpec()
	spec.Profile.Category = core.CategoryTrojan
	if Build(spec).Verdict() != core.VerdictMalware {
		t.Fatal("verdict pass-through wrong")
	}
}

func TestInstallStandardSystemUnsigned(t *testing.T) {
	h := NewHost("pc-1")
	system := InstallStandardSystem(h, nil)
	if len(system) != len(SystemProcessNames) {
		t.Fatalf("installed %d", len(system))
	}
	for path, exe := range system {
		if !exe.Sig.IsZero() {
			t.Fatalf("%s signed without a signer", path)
		}
		meta, err := exe.Meta()
		if err != nil || meta.VendorKnown() {
			t.Fatalf("%s vendor = %q, %v", path, meta.Vendor, err)
		}
	}
}
