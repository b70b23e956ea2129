package cutfit_test

import (
	"bufio"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestNoFusedMultiplyAdd keeps float results bit-identical across
// architectures. Go may fuse x*y + z into one instruction on every 64-bit
// port but amd64, and a fused result differs from the rounded one in the last
// bit, so a worker on arm64 would disagree with a coordinator on amd64. An
// explicit float64(...) conversion rounds the product and prevents fusion
// (https://go.dev/ref/spec#Floating_point_operators). The test compiles the
// float-bearing packages for arm64 with -S and fails on any fused
// multiply-add the compiler emitted for their source lines; it needs only
// the go command, no arm64 machine.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	pkgs := []string{"internal/algorithms", "internal/pregel", "internal/metrics", "internal/cluster", "internal/stats"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	args := []string{"build", "-gcflags=-S"}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	cmd := exec.CommandContext(ctx, goBin, args...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	cmd.WaitDelay = 10 * time.Second
	out, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// An instruction line reads "\t0x001c 00028 (/path/file.go:55)\tOP\targs".
	inst := regexp.MustCompile(`\(([^()]+\.go):(\d+)\)\s+([A-Z0-9.]+)`)
	fused := map[string]bool{"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true}
	compileErr := regexp.MustCompile(`^\S+\.go:\d+:\d+: `)
	seen := map[string]int{}
	var errs []string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := inst.FindStringSubmatch(line)
		if m == nil {
			if compileErr.MatchString(line) {
				errs = append(errs, line)
			}
			continue
		}
		file := filepath.ToSlash(m[1])
		for _, p := range pkgs {
			if strings.Contains(file, "/"+p+"/") {
				seen[p]++
			}
		}
		if fused[m[3]] && !strings.HasSuffix(file, "_test.go") {
			t.Errorf("%s:%s: %s — round the product with an explicit float64(...) conversion", file, m[2], m[3])
		}
	}
	scanErr := sc.Err()
	io.Copy(io.Discard, out) // a scan that stopped early must not block the child
	if err := cmd.Wait(); err != nil {
		t.Fatalf("GOARCH=arm64 go %s: %v\n%s", strings.Join(args, " "), err, strings.Join(errs, "\n"))
	}
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	for _, p := range pkgs {
		if seen[p] == 0 {
			t.Errorf("no arm64 assembly attributed to %s: the listing was not read", p)
		}
	}
}
