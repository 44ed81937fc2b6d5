package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"parj/internal/rdf"
)

// proc is one server child process: parj-server or parj-node.
type proc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	log     *os.File
	exited  chan struct{} // closed once Wait returned
	waitErr error
	once    sync.Once // the first of kill and stop ends the process
	stopErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts bin with args plus a fresh loopback -addr and returns once
// /readyz answers 200, with the time from start to that answer.
func launch(bin string, args []string, logPath string, poll *http.Client) (*proc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	p := &proc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("%s exited before ready: %v (log %s)", filepath.Base(bin), p.waitErr, logPath)
		default:
		}
		if resp, err := poll.Get(p.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, 0, fmt.Errorf("%s not ready after 120s (log %s)", filepath.Base(bin), logPath)
}

// kill stops the process at once and waits for it; a no-op once the
// process was stopped.
func (p *proc) kill() {
	p.once.Do(func() {
		p.cmd.Process.Kill()
		<-p.exited
		p.log.Close()
	})
}

// stop asks the process to drain (SIGTERM), waits up to 20 s, then kills
// it. It reports a non-clean exit.
func (p *proc) stop() error {
	p.once.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
			p.stopErr = p.waitErr
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
			p.stopErr = errors.New("did not drain within 20s; killed")
		}
		p.log.Close()
	})
	return p.stopErr
}

// cpuTicks returns the process's user+sys CPU time in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + k, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times; 100 on every Linux
// architecture Go runs on.
const clockTick = 100

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns an HTTP client that keeps at most one connection to
// the server, so the benchmark's two clients hold at most two.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// reply is the timed-phase view of a /query response: the client reads the
// body but decodes only its tail.
type reply struct {
	status int
	count  int64
	took   time.Duration
	// size is the body length minus the took value, which is the only
	// part of a correct response that varies from run to run.
	size int
}

// query POSTs src and reads the whole response into buf.
func query(c *http.Client, base, src string, buf *bytes.Buffer) (reply, error) {
	resp, err := c.Post(base+"/query", "application/sparql-query", strings.NewReader(src))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{status: resp.StatusCode}, err
	}
	r := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		return r, nil
	}
	return parseTail(buf.Bytes(), r)
}

// parseTail reads count and took from the end of a query response body,
// {"vars":[...],"rows":[...],"count":N,"took":"D"}, without decoding rows.
func parseTail(b []byte, r reply) (reply, error) {
	ci := bytes.LastIndex(b, []byte(`,"count":`))
	ti := bytes.LastIndex(b, []byte(`,"took":"`))
	if ci < 0 || ti < ci {
		return r, errors.New("response tail lacks count and took")
	}
	n, err := strconv.ParseInt(string(b[ci+len(`,"count":`):ti]), 10, 64)
	if err != nil {
		return r, fmt.Errorf("count: %w", err)
	}
	rest := b[ti+len(`,"took":"`):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return r, errors.New("unterminated took")
	}
	took, err := time.ParseDuration(string(rest[:end]))
	if err != nil {
		return r, fmt.Errorf("took: %w", err)
	}
	r.count, r.took, r.size = n, took, len(b)-end
	return r, nil
}

// queryRows runs src and decodes every row, for the oracle checks.
func queryRows(c *http.Client, base, src string) ([][]string, reply, error) {
	var buf bytes.Buffer
	r, err := query(c, base, src, &buf)
	if err != nil {
		return nil, r, err
	}
	if r.status != http.StatusOK {
		return nil, r, fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(buf.String()))
	}
	var body struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		return nil, r, err
	}
	return body.Rows, r, nil
}

// writeTriple is the wire form of parj.Triple.
type writeTriple struct {
	S, P, O string
}

func wireTriples(ts []rdf.Triple) []writeTriple {
	out := make([]writeTriple, len(ts))
	for i, t := range ts {
		out[i] = writeTriple{t.S, t.P, t.O}
	}
	return out
}

// postWrite sends one batch to /write and waits for the acknowledgement,
// which on a WAL server follows the group commit.
func postWrite(c *http.Client, base string, b batch) error {
	body, err := json.Marshal(struct {
		Inserts []writeTriple `json:"inserts,omitempty"`
		Deletes []writeTriple `json:"deletes,omitempty"`
	}{wireTriples(b.inserts), wireTriples(b.deletes)})
	if err != nil {
		return err
	}
	resp, err := c.Post(base+"/write", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // only quoted in the error
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("write status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}
