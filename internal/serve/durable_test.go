package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRenameDurable pins the helper every rename in the daemon goes
// through: it moves files and directories with or without sync, and when
// the directory sync fails after the rename (here the parent is moved away
// first) the rename stands and the error is returned.
func TestRenameDurable(t *testing.T) {
	for _, sync := range []bool{false, true} {
		dir := t.TempDir()
		from, to := filepath.Join(dir, "x.tmp"), filepath.Join(dir, "x")
		if err := os.WriteFile(from, []byte("new"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := RenameDurable(from, to, sync); err != nil {
			t.Fatalf("sync=%v: %v", sync, err)
		}
		if got, err := os.ReadFile(to); err != nil || string(got) != "new" {
			t.Fatalf("sync=%v: %s holds %q (%v), want the renamed file", sync, to, got, err)
		}
		if _, err := os.Stat(from); !os.IsNotExist(err) {
			t.Fatalf("sync=%v: source still present (%v)", sync, err)
		}

		// A directory moves into another parent.
		stage, jobs := filepath.Join(dir, "stage"), filepath.Join(dir, "jobs")
		for _, d := range []string{filepath.Join(stage, "job"), jobs} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := RenameDurable(filepath.Join(stage, "job"), filepath.Join(jobs, "job"), sync); err != nil {
			t.Fatalf("sync=%v: moving a directory: %v", sync, err)
		}
		if st, err := os.Stat(filepath.Join(jobs, "job")); err != nil || !st.IsDir() {
			t.Fatalf("sync=%v: directory not moved (%v)", sync, err)
		}
	}

	dir := t.TempDir()
	parent := filepath.Join(dir, "job")
	if err := os.Mkdir(parent, 0o755); err != nil {
		t.Fatal(err)
	}
	from, to := filepath.Join(parent, "x.tmp"), filepath.Join(parent, "x")
	if err := os.WriteFile(from, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(d string) error {
		if err := os.Rename(d, d+".gone"); err != nil {
			t.Fatal(err)
		}
		return syncPath(d)
	}
	if err := RenameDurable(from, to, true); err == nil {
		t.Fatal("directory sync of a removed parent reported success")
	}
	if got, err := os.ReadFile(filepath.Join(parent+".gone", "x")); err != nil || string(got) != "new" {
		t.Fatalf("rename did not commit before the failed directory sync: %q (%v)", got, err)
	}
}
