package link

import (
	"strings"
	"testing"

	"knit/internal/knit/lang"
)

// Fixture for the dynamic-elaboration error paths: a base program with
// one Svc provider, plus candidate dynamic units that need wiring.
const dynUnits = `
bundletype Svc = { get }
bundletype Other = { poke }

unit Base = {
  exports [ svc : Svc ];
  files { "base.c" };
}
unit Consumer = {
  imports [ svc : Svc ];
  exports [ out : Svc ];
  depends { out needs svc; };
  files { "consumer.c" };
  rename { svc.get to svc_get; };
}
unit Compound = {
  exports [ out : Svc ];
  link {
    [svc] <- Base <- [];
    [out] <- Consumer <- [svc];
  };
}
unit Top = {
  exports [ svc : Svc ];
  link {
    [svc] <- Base <- [];
  };
}
`

var dynSources = Sources{
	"base.c":     `int get(void) { return 7; }`,
	"consumer.c": `int svc_get(void); int get(void) { return svc_get() + 1; }`,
}

func dynFixture(t *testing.T) (*Registry, *Program) {
	t.Helper()
	f, err := lang.Parse("dyn.unit", dynUnits)
	if err != nil {
		t.Fatalf("parse units: %v", err)
	}
	reg, err := NewRegistry(f)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	base, err := Elaborate(reg, "Top", dynSources, nil)
	if err != nil {
		t.Fatalf("elaborate base: %v", err)
	}
	return reg, base
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("no error, want one containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", err, frag)
	}
}

func TestElaborateDynamicEnvUnknownUnit(t *testing.T) {
	reg, base := dynFixture(t)
	_, err := ElaborateDynamicEnv(reg, base, "NoSuchUnit", dynSources, nil, &FrontEnd{})
	wantErr(t, err, "unknown unit NoSuchUnit")
}

func TestElaborateDynamicEnvRejectsCompound(t *testing.T) {
	reg, base := dynFixture(t)
	_, err := ElaborateDynamicEnv(reg, base, "Compound", dynSources, nil, &FrontEnd{})
	wantErr(t, err, "must be atomic")
}

func TestElaborateDynamicEnvMissingImport(t *testing.T) {
	reg, base := dynFixture(t)
	// Absent from the environment entirely.
	_, err := ElaborateDynamicEnv(reg, base, "Consumer", dynSources, map[string]*Wire{}, &FrontEnd{})
	wantErr(t, err, `import "svc" not wired`)
	// Present but nil: same refusal — a half-built environment must not
	// elaborate.
	_, err = ElaborateDynamicEnv(reg, base, "Consumer", dynSources, map[string]*Wire{"svc": nil}, &FrontEnd{})
	wantErr(t, err, `import "svc" not wired`)
}

func TestElaborateDynamicEnvBundleTypeMismatch(t *testing.T) {
	reg, base := dynFixture(t)
	w := base.Exports["svc"]
	if w == nil {
		t.Fatal("fixture lost its svc export")
	}
	bad := &Wire{Provider: w.Provider, Bundle: w.Bundle, Type: "Other"}
	_, err := ElaborateDynamicEnv(reg, base, "Consumer", dynSources, map[string]*Wire{"svc": bad}, &FrontEnd{})
	wantErr(t, err, "bundle type")
}

// TestElaborateDynamicEnvWiresInternalProvider pins the success path
// that distinguishes Env from plain ElaborateDynamic: the environment
// may point at any internal wire, not just top-level exports, and the
// new instance's IDs advance past every base instance's.
func TestElaborateDynamicEnvWiresInternalProvider(t *testing.T) {
	reg, base := dynFixture(t)
	maxID := 0
	for _, inst := range base.Instances {
		if inst.ID > maxID {
			maxID = inst.ID
		}
	}
	inst, err := ElaborateDynamicEnv(reg, base, "Consumer", dynSources, map[string]*Wire{
		"svc": base.Exports["svc"],
	}, &FrontEnd{})
	if err != nil {
		t.Fatalf("ElaborateDynamicEnv: %v", err)
	}
	if inst.ID <= maxID {
		t.Errorf("dynamic instance ID %d does not advance past base max %d", inst.ID, maxID)
	}
	if inst.Path != "dynamic/Consumer" {
		t.Errorf("instance path = %q", inst.Path)
	}
	if g := inst.ExportSyms["out"]["get"]; !strings.HasPrefix(g, "get__k") {
		t.Errorf("export global = %q, want get__k<N>", g)
	}
}
