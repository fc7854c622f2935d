package cmini

import (
	"strings"
	"testing"
)

// kitchenSink uses every statement and expression form, so clone/rename
// walk every node type.
const kitchenSink = `
struct pair { int a; int b; };
int table[4];
static int counter = 0;
extern int external_fn(int x);
int helper(int x) { return x; }

int everything(int n, int *p, struct pair *pr) {
    int local = n > 0 ? helper(n) : -n;
    int arr[3];
    arr[0] = 1;
    for (counter = 0; counter < n; counter++) {
        if (counter % 2 == 0) {
            continue;
        } else if (counter > 10) {
            break;
        }
        local += arr[counter % 3];
    }
    while (local > 100) {
        local >>= 1;
    }
    {
        int shadow = local;
        local = shadow + table[1];
    }
    pr->a = local;
    pr->b = (*p)++;
    local -= external_fn(pr->a & ~n | (n ^ 3));
    int sz = sizeof(struct pair) + sizeof(int);
    char *msg = "literal";
    local += msg[0] + sz + !n;
    counter--;
    return local;
}
`

func TestCloneEveryNodeType(t *testing.T) {
	f := mustParse(t, kitchenSink)
	cp := CloneFile(f)
	if Print(f) != Print(cp) {
		t.Fatal("clone prints differently from original")
	}
	// Mutating the clone must not affect the original.
	RenameGlobals(cp, map[string]string{
		"everything": "X_everything", "helper": "X_helper",
		"counter": "X_counter", "table": "X_table",
		"external_fn": "X_external_fn",
	})
	orig := Print(f)
	if strings.Contains(orig, "X_") {
		t.Error("renaming the clone mutated the original")
	}
	mutated := Print(cp)
	for _, want := range []string{"X_everything", "X_helper", "X_counter",
		"X_table", "X_external_fn"} {
		if !strings.Contains(mutated, want) {
			t.Errorf("clone missing renamed %s", want)
		}
	}
	// No occurrences of the old global names may remain as identifiers.
	reparsed, err := Parse("m.c", mutated)
	if err != nil {
		t.Fatalf("mutated clone does not reparse: %v", err)
	}
	refs := refSet(reparsed)
	for _, gone := range []string{"helper", "counter", "table", "external_fn"} {
		if refs[gone] {
			t.Errorf("stale reference to %q after rename", gone)
		}
	}
}

func TestRenamePreservesSemantics(t *testing.T) {
	// Renaming globals must not change what the program computes: check
	// by comparing printed bodies modulo the renaming map.
	f := mustParse(t, kitchenSink)
	cp := CloneFile(f)
	mapping := map[string]string{
		"everything": "aa", "helper": "bb", "counter": "cc",
		"table": "dd", "external_fn": "ee",
	}
	RenameGlobals(cp, mapping)
	out := Print(cp)
	undone := out
	for from, to := range mapping {
		undone = strings.ReplaceAll(undone, to, from)
	}
	if undone != Print(f) {
		t.Errorf("rename is not a pure substitution:\n%s\nvs\n%s", undone, Print(f))
	}
}

func TestGlobalRefsKitchenSink(t *testing.T) {
	f := mustParse(t, kitchenSink)
	refs := refSet(f)
	for _, want := range []string{"helper", "counter", "table", "external_fn"} {
		if !refs[want] {
			t.Errorf("missing ref %q", want)
		}
	}
	for _, local := range []string{"local", "arr", "shadow", "sz", "msg", "n", "p", "pr", "x"} {
		if refs[local] {
			t.Errorf("local %q leaked into global refs", local)
		}
	}
}

func TestCloneNilBody(t *testing.T) {
	f := mustParse(t, `extern int proto(int x);`)
	cp := CloneFile(f)
	if cp.Decls[0].(*FuncDecl).Body != nil {
		t.Error("prototype clone grew a body")
	}
}

// refSet returns GlobalRefs(f)'s names as a set.
func refSet(f *File) map[string]bool {
	set := map[string]bool{}
	for _, id := range GlobalRefs(f) {
		set[id.Name] = true
	}
	return set
}
