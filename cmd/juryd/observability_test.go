package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
)

func TestBuildLogger(t *testing.T) {
	var buf bytes.Buffer
	for _, level := range []string{"debug", "info", "warn", "off"} {
		if _, err := buildLogger(level, &buf); err != nil {
			t.Errorf("buildLogger(%q): %v", level, err)
		}
	}
	if _, err := buildLogger("verbose", &buf); err == nil {
		t.Error("buildLogger(\"verbose\") accepted an unknown level")
	}

	// info must pass 4xx request lines (logged at Info) and drop the
	// 2xx ones (logged at Debug).
	buf.Reset()
	lg, err := buildLogger("info", &buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("quiet")
	lg.Info("loud")
	if out := buf.String(); strings.Contains(out, "quiet") || !strings.Contains(out, "loud") {
		t.Errorf("info logger output = %q, want loud only", out)
	}

	// off must swallow everything.
	buf.Reset()
	lg, err = buildLogger("off", &buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Log(nil, slog.LevelError, "nope")
	if buf.Len() != 0 {
		t.Errorf("off logger wrote %q", buf.String())
	}
}

func TestDaemonServesPprofOnDebugAddr(t *testing.T) {
	d := startDaemon(t, "-debug-addr", "127.0.0.1:0")
	resp, err := http.Get("http://" + d.WaitLine("juryd: pprof on ") + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles: %q", body)
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("daemon exited with error: %v", err)
	}
}

func TestDaemonTraceBufferFlag(t *testing.T) {
	// Negative -trace-buffer disables tracing; /debug/traces still
	// answers, reporting enabled:false.
	d := startDaemon(t, "-trace-buffer", "-1")
	d.expect(http.MethodGet, "/debug/traces", "", http.StatusOK, `"enabled":false`)
	if err := d.Stop(); err != nil {
		t.Fatalf("daemon exited with error: %v", err)
	}
}

func TestDaemonEchoesRequestID(t *testing.T) {
	d := startDaemon(t)
	req, err := http.NewRequest(http.MethodGet, d.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "op-curl-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "op-curl-1" {
		t.Errorf("echoed request id = %q, want op-curl-1", got)
	}

	// A request with no ID still gets one assigned.
	if resp, _ := d.expect(http.MethodGet, "/healthz", "", http.StatusOK); resp.Header.Get("X-Request-Id") == "" {
		t.Error("daemon did not assign a request id")
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("daemon exited with error: %v", err)
	}
}

func TestDaemonRejectsBadLogLevel(t *testing.T) {
	err := run(t.Context(), []string{"-addr", "127.0.0.1:0", "-log-level", "loud"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "log-level") {
		t.Fatalf("run with bad -log-level: %v, want log-level error", err)
	}
}
