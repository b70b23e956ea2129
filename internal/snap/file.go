package snap

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces the file at path with what write produces. The
// bytes go to a temp file named <base of path>.tmp* in the same directory,
// which is synced, closed and then renamed over path: a reader, or a boot
// after a crash, finds the old file or the whole new one, never a part, and
// a system crash just after the rename cannot surface an unsynced file. On
// any error the temp file is removed and the file at path is left as it
// was.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
