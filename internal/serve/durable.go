package serve

import (
	"os"
	"path/filepath"
)

// RenameDurable moves a fully written file or directory into place. With
// sync set (a job running with SyncJournal) it fsyncs from before the
// rename and the parent directory after it, plus from's parent when it
// differs, so the new name survives power loss and not only the process:
// a rename is a directory update, which fsyncing the file alone does not
// make durable. An error from the directory sync comes after the rename
// has already taken effect.
func RenameDurable(from, to string, sync bool) error {
	if sync {
		if err := syncPath(from); err != nil {
			return err
		}
	}
	if err := os.Rename(from, to); err != nil {
		return err
	}
	if !sync {
		return nil
	}
	if err := syncDir(filepath.Dir(to)); err != nil {
		return err
	}
	if dir := filepath.Dir(from); dir != filepath.Dir(to) {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory's entries. A variable so tests can fail it.
var syncDir = syncPath

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
