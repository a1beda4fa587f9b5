package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// server is one semiserve process started by the harness.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	// streams carries event streams, which outlive any request timeout.
	streams *http.Client
	// stdoutDone closes once the process's stdout is drained; Wait may
	// only run after that.
	stdoutDone chan struct{}
}

// startServer launches semiserve on a free loopback port with the given
// extra flags and returns once it answers /healthz.
func startServer(bin string, flags ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-log-level", "off", "-session-idle", "0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting semiserve: %w", err)
	}
	s := &server{
		cmd:        cmd,
		stdoutDone: make(chan struct{}),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				DisableCompression:  true,
			},
		},
		streams: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	first := make(chan string, 1)
	go func() {
		defer close(s.stdoutDone)
		sc := bufio.NewScanner(stdout)
		line := ""
		if sc.Scan() {
			line = sc.Text()
		}
		first <- line
		io.Copy(io.Discard, stdout)
	}()

	var line string
	select {
	case line = <-first:
	case <-time.After(30 * time.Second):
	}
	const prefix = "semiserve: listening on "
	if !strings.HasPrefix(line, prefix) {
		s.stop()
		return nil, fmt.Errorf("semiserve did not report its address (got %q)", line)
	}
	s.url = "http://" + strings.TrimPrefix(line, prefix)
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("semiserve at %s never became healthy: %v", s.url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the process and waits for it to exit.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.streams.CloseIdleConnections()
	s.cmd.Process.Kill()
	<-s.stdoutDone
	s.cmd.Wait()
}

// do sends one request and decodes a JSON answer into out (when non-nil).
// Any status other than want is an error.
func (s *server) do(method, path, contentType, body string, want int, out any) error {
	req, err := http.NewRequest(method, s.url+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// solve posts one instance to /solve with the given query (the auto
// policy when empty) and returns the answer with the request's wall time.
func (s *server) solve(in *instance, query string) (*solveResponse, time.Duration, error) {
	var r solveResponse
	t0 := time.Now()
	err := s.do(http.MethodPost, "/solve"+query, "text/plain", in.body, http.StatusOK, &r)
	return &r, time.Since(t0), err
}

// counters scrapes /metrics and returns every unlabeled semimatch_*
// sample.
func (s *server) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "semimatch_") || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("GET /metrics: no semimatch_ samples")
	}
	return out, nil
}

// sseEvent is one server-sent event: its name and JSON data.
type sseEvent struct {
	name string
	data []byte
}

// sseStream is an open GET /session/{id}/events stream, read to its end
// by its own goroutine.
type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	events []sseEvent
	err    error
}

// subscribe opens the session's event stream and returns once the server
// has answered, so no later session event can be missed.
func (s *server) subscribe(id string) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/session/"+id+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.streams.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /session/%s/events: HTTP %d", id, resp.StatusCode)
	}
	st := &sseStream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && cur.name != "":
				st.events = append(st.events, cur)
				cur = sseEvent{}
			}
		}
		st.err = sc.Err()
	}()
	return st, nil
}

// wait returns the stream's events once the server has ended it, or an
// error when it has not ended within 30 s.
func (st *sseStream) wait() ([]sseEvent, error) {
	defer st.cancel()
	select {
	case <-st.done:
		return st.events, st.err
	case <-time.After(30 * time.Second):
		st.cancel()
		<-st.done
		return nil, errors.New("stream did not end after the session closed")
	}
}
