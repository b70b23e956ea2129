package snap

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write that fails part-way leaves the existing file
// byte-identical and no temp file behind; one that succeeds replaces the
// file, again leaving nothing else in the directory.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	old := []byte("the previous good contents")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	only := func(want []byte) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "state.snap" {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %v, want only state.snap", names)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("state.snap holds %q, want %q", got, want)
		}
	}

	failed := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a new snap")); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failing write returned %v, want %v", err, failed)
	}
	only(old)

	fresh := []byte("the whole new contents")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(fresh)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	only(fresh)
}
