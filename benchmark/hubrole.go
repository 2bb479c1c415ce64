package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ekho/internal/codec"
	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// The hub role: the system under test, alone in a child process with
// GOMAXPROCS=1 so "per core" is literal. It hosts hub.New(...).Serve() on
// a kernel UDP loopback socket exactly as cmd/ekho-server does (sniffing
// rtp.NewCodec() decoder, default 20 ms ticker, 8 shards, 30 s idle
// timeout) and speaks a line protocol on its stdin/stdout pipe:
//
//	child → parent   "addr 127.0.0.1:PORT"      once, when listening
//	child → parent   "ready"                    once, when every session is streaming
//	parent → child   "stats"                    → one HubStats JSON line
//	parent → child   "quit"                     → one HubFinal JSON line, then exit
//
// Closing the child's stdin (the parent died) also ends it.

// HubStats is the child's answer to "stats": everything the hub knows
// about itself that the parent cannot see from outside.
type HubStats struct {
	// WallNS is the child's clock at the snapshot.
	WallNS int64 `json:"wall_ns"`
	// CPUNS is getrusage(RUSAGE_SELF) user+system time; SysNS the system
	// share of it.
	CPUNS int64 `json:"cpu_ns"`
	SysNS int64 `json:"sys_ns"`
	// PeakRSSKB is VmHWM from /proc/self/status.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// SocketDrops is the hub socket's drops column in /proc/net/udp.
	SocketDrops int64             `json:"socket_drops"`
	Hub         hub.Snapshot      `json:"hub"`
	Sessions    []hub.SessionInfo `json:"sessions"`
	Dispatch    hub.LatencyHist   `json:"dispatch"`

	Mallocs      uint64 `json:"mallocs"`
	GCPauseNS    uint64 `json:"gc_pause_ns"`
	RTPAnomalies uint64 `json:"rtp_anomalies"`
}

// HubFinal is the child's last line: the final snapshot plus every
// session's result as OnSessionEnd reported it.
type HubFinal struct {
	Stats   HubStats            `json:"stats"`
	Results []hub.SessionResult `json:"results"`
}

// finalPrefix tells the final report from a stats reply on the pipe.
const finalPrefix = `{"stats":`

func codecByFlag(name string) (codec.Profile, error) {
	switch name {
	case "swb32":
		return codec.SWB32, nil
	case "lossless":
		return codec.Lossless, nil
	}
	return codec.Profile{}, fmt.Errorf("unknown codec %q", name)
}

func codecFlag(p codec.Profile) string {
	if p.Lossless {
		return "lossless"
	}
	return "swb32"
}

// runHubRole is the child's main.
func runHubRole(capacity int, codecName string, cpu int) error {
	prof, err := codecByFlag(codecName)
	if err != nil {
		return err
	}
	if cpu >= 0 {
		if err := placeHub(cpu); err != nil {
			return err
		}
	}
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	dec := rtp.NewCodec()
	conn.SetDecoder(dec)

	out := bufio.NewWriter(os.Stdout)
	var outMu sync.Mutex
	say := func(line string) {
		outMu.Lock()
		defer outMu.Unlock()
		fmt.Fprintln(out, line)
		out.Flush()
	}

	var ready atomic.Int64
	var resMu sync.Mutex
	var results []hub.SessionResult
	h := hub.New(hub.Config{
		Capacity: capacity,
		Codec:    prof,
		OnSessionReady: func(uint32) {
			if ready.Add(1) == int64(capacity) {
				say("ready")
			}
		},
		OnSessionEnd: func(_ uint32, r hub.SessionResult) {
			resMu.Lock()
			results = append(results, r)
			resMu.Unlock()
		},
	}, conn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()

	port := conn.LocalAddr().(*net.UDPAddr).Port
	say("addr " + conn.LocalAddr().String())

	snapshot := func() HubStats {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := HubStats{
			WallNS:      time.Now().UnixNano(),
			CPUNS:       ru.Utime.Nano() + ru.Stime.Nano(),
			SysNS:       ru.Stime.Nano(),
			PeakRSSKB:   procStatusKB("VmHWM"),
			SocketDrops: udpDrops(port),
			Hub:         h.Stats(),
			Dispatch:    h.DispatchLatency(),
			Mallocs:     ms.Mallocs,
			GCPauseNS:   ms.PauseTotalNs,
		}
		st.Sessions = h.SessionInfos()
		return st
	}

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch strings.TrimSpace(in.Text()) {
		case "stats":
			b, err := json.Marshal(snapshot())
			if err != nil {
				return err
			}
			say(string(b))
		case "quit":
			st := snapshot()
			// The sniffing decoder belongs to the receive loop; read its
			// anomaly counters only after Serve has returned.
			h.Close()
			if err := <-serveErr; err != nil {
				return err
			}
			agg, overflow := dec.Stats()
			st.RTPAnomalies = agg.Reordered + agg.Lost + agg.Duplicates + agg.WrongSSRC + overflow
			resMu.Lock()
			b, err := json.Marshal(HubFinal{Stats: st, Results: results})
			resMu.Unlock()
			if err != nil {
				return err
			}
			say(string(b))
			return nil
		}
	}
	// stdin closed without "quit": the parent is gone.
	h.Close()
	<-serveErr
	return in.Err()
}

// procStatusKB reads one "kB" field of /proc/self/status (0 if absent).
func procStatusKB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// udpDrops returns the kernel's receive-drop count for the IPv4 UDP
// socket bound to the given local port (the drops column of
// /proc/net/udp), or 0 when the table is unreadable.
func udpDrops(port int) int64 {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0
	}
	want := fmt.Sprintf(":%04X", port)
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 13 || !strings.HasSuffix(f[1], want) {
			continue
		}
		v, _ := strconv.ParseInt(f[len(f)-1], 10, 64)
		return v
	}
	return 0
}

// hubProc is the parent's handle on a hub child.
type hubProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // every stdout line, closed at EOF
	Addr  *net.UDPAddr
}

// startHub spawns this binary in the hub role and waits for its listen
// address. The child runs with GOMAXPROCS=1.
func startHub(capacity int, prof codec.Profile) (*hubProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, "-role", "hub", "-capacity", strconv.Itoa(capacity),
		"-hub-codec", codecFlag(prof), "-hub-cpu", strconv.Itoa(hubOnCPU))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	hp := &hubProc{cmd: cmd, stdin: stdin, lines: make(chan string, 16)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hub child: %w", err)
	}
	// The reader goroutine ends when the child's stdout closes; Kill and
	// Quit wait for that by draining lines.
	go func() {
		defer close(hp.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			hp.lines <- sc.Text()
		}
	}()
	line, err := hp.waitLine(10 * time.Second)
	if err != nil {
		hp.Kill()
		return nil, fmt.Errorf("hub child did not report its address: %w", err)
	}
	addr, ok := strings.CutPrefix(line, "addr ")
	if !ok {
		hp.Kill()
		return nil, fmt.Errorf("hub child said %q, want its address", line)
	}
	if hp.Addr, err = net.ResolveUDPAddr("udp", addr); err != nil {
		hp.Kill()
		return nil, err
	}
	return hp, nil
}

func (hp *hubProc) waitLine(timeout time.Duration) (string, error) {
	select {
	case line, ok := <-hp.lines:
		if !ok {
			return "", errors.New("hub child exited")
		}
		return line, nil
	case <-time.After(timeout):
		return "", errors.New("timed out")
	}
}

// Ask sends one command line to the child.
func (hp *hubProc) Ask(cmd string) error {
	_, err := io.WriteString(hp.stdin, cmd+"\n")
	return err
}

// Kill stops the child without ceremony and reaps it.
func (hp *hubProc) Kill() {
	_ = hp.cmd.Process.Kill() // already-exited is fine
	hp.stdin.Close()
	for range hp.lines {
	}
	_ = hp.cmd.Wait() // exit status of a killed child is not interesting
}

// Quit asks the child for its final report, waits for it to exit and
// returns the report.
func (hp *hubProc) Quit() (*HubFinal, error) {
	if err := hp.Ask("quit"); err != nil {
		hp.Kill()
		return nil, err
	}
	deadline := time.After(20 * time.Second)
	for {
		select {
		case line, ok := <-hp.lines:
			if !ok {
				hp.Kill()
				return nil, errors.New("hub child exited without a final report")
			}
			if !strings.HasPrefix(line, finalPrefix) {
				continue // a late stats reply
			}
			var final HubFinal
			if err := json.Unmarshal([]byte(line), &final); err != nil {
				hp.Kill()
				return nil, fmt.Errorf("hub final report: %w", err)
			}
			hp.stdin.Close()
			for range hp.lines {
			}
			if err := hp.cmd.Wait(); err != nil {
				return nil, fmt.Errorf("hub child: %w", err)
			}
			return &final, nil
		case <-deadline:
			hp.Kill()
			return nil, errors.New("hub child did not quit in time")
		}
	}
}
