package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// SIGINT shuts the daemon down within a second even while a worker's
// lease request is parked on a 30 s wait: shutdown wakes parked leases
// instead of waiting them out.
func TestSIGINTWakesParkedLease(t *testing.T) {
	out, stdout := io.Pipe()
	exited := make(chan error, 1)
	go func() {
		exited <- run([]string{"-listen", "127.0.0.1:0", "-local", "-1", "-quiet"}, stdout)
		stdout.Close()
	}()
	lines := bufio.NewReader(out)
	line, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("no serving line: %v", err)
	}
	go io.Copy(io.Discard, lines) //nolint:errcheck // drain until run returns
	_, rest, ok := strings.Cut(line, "serving on ")
	url, _, _ := strings.Cut(rest, " ")
	if !ok || !strings.HasPrefix(url, "http://") {
		t.Fatalf("unexpected serving line %q", line)
	}

	leased := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"api/worker/lease", "application/json",
			strings.NewReader(`{"worker":"w","max_points":1,"ttl_seconds":60,"wait_seconds":30}`))
		if err != nil {
			leased <- 0
			return
		}
		resp.Body.Close()
		leased <- resp.StatusCode
	}()
	time.Sleep(200 * time.Millisecond) // let the request park

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dfserved did not exit after SIGINT")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shutdown took %v with a parked lease", d)
	}
	if code := <-leased; code != http.StatusNoContent {
		t.Fatalf("parked lease answered %d, want 204", code)
	}
}
