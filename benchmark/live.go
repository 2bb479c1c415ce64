package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ekho/internal/netsim"
	"ekho/internal/rtp"
	"ekho/internal/transport"
	"ekho/internal/vclock"
)

// The loadgen role: the parent process, GOMAXPROCS=1, one goroutine
// driving every player over two UDP sockets (screen side and controller
// side, all sessions multiplexed on them — the hub demultiplexes by
// session id, so its replies fan back in on the same two sockets). The hub
// is the open-loop side: its ticker does not wait for clients. Chat uplink
// is paced by each player's device clock.
//
// The loop sleeps until the next device tick is due, empties both sockets
// without blocking, and then replays what happened in order: every
// datagram carries the kernel's receive timestamp (SO_TIMESTAMPNS), and
// arrivals and device ticks are merged by time. A frame therefore counts
// as "arrived before its playout tick" by when the kernel got it, not by
// when the loadgen got round to reading it, so a scheduling hiccup in the
// generator delays its chat uplink but never turns into a phantom underrun
// or shifts one stream against the other.

// loadgenRecvBuf is the kernel receive buffer requested for each loadgen
// socket (the kernel caps it at net.core.rmem_max). The hub flushes a
// tick's frames for every session in one burst; a default-sized buffer
// holds barely two such bursts.
const loadgenRecvBuf = 4 << 20

// pollEvery is the hub-stats polling period during a run.
const pollEvery = time.Second

// wireHeaderLen is the per-datagram framing overhead of both framings (v2
// with a session id and RTP both use 12 bytes).
const wireHeaderLen = 12

// endpointRoles maps a stream index to the role its device hellos with.
var endpointRoles = [numStreams]transport.Role{transport.RoleScreen, transport.RoleController}

func wireEncoder(w transport.Wire) transport.WireEncoder {
	if w == transport.WireRTP {
		return rtp.Encoder{}
	}
	return transport.V2{}
}

// arrivals tracks one downlink stream's raw (pre-impairment) arrivals at
// the loadgen socket: the hub's delivered cadence as the wire shows it.
type arrivals struct {
	seen     bool
	firstSeq uint32
	// offsets holds, for every frame that arrived inside the window, its
	// arrival time minus its place on the 20 ms grid ((seq − firstSeq) ×
	// 20 ms).
	offsets []float64
}

// liveSession is the loadgen's per-session state around a Player.
type liveSession struct {
	p     *Player
	arr   [numStreams]arrivals
	links [numStreams]*netsim.Link // nil on clean workloads
	up    *netsim.Link
}

// inMsg is one received datagram waiting to be replayed in time order.
type inMsg struct {
	at     float64 // kernel receive time on the loadgen clock
	stream int
	msg    transport.Message
}

// sock is one loadgen socket with non-blocking timestamped reads.
type sock struct {
	conn *net.UDPConn
	raw  syscall.RawConn
	dec  transport.Decoder // stateful sniffing decoder, one per socket
	buf  []byte
	oob  []byte
}

// poll is one answered hub "stats" request.
type poll struct {
	at float64 // loadgen clock when the reply was read
	st HubStats
}

// liveRun is one live run: a hub child, the two loadgen sockets and the
// players between them.
type liveRun struct {
	plan Plan
	tl   Timeline
	hub  *hubProc
	wenc transport.WireEncoder

	socks    [numStreams]*sock
	hubAddr  netip.AddrPort
	sessions []*liveSession // index = session id - 1
	order    []*liveSession // by tick phase
	cursor   int            // next session in order to tick
	round    int64          // device tick index of that session

	epochNS int64             // wall clock (ns) of loadgen time zero
	sched   *vclock.Scheduler // rough workloads only
	inbox   []inMsg           // slots reused across drains
	chatBuf []byte

	// Window bounds on the loadgen clock; zero until set-up finishes.
	runStart, winStart, winEnd float64

	tickLateMS []float64
	wireBytes  int64
	polls      []poll
	hubReady   float64 // loadgen clock of the child's "ready" line
	helloAt    float64

	// The loadgen's own CPU clock at the window's edges, and its sockets'
	// kernel drop count at the window's end.
	cpu0, cpu1 cpuSample
	drops      int64
}

// now is the loadgen clock: wall-clock seconds since the run's epoch, the
// clock the kernel's receive timestamps are on.
func (lr *liveRun) now() float64 { return float64(time.Now().UnixNano()-lr.epochNS) / 1e9 }

func (lr *liveRun) inWindow(t float64) bool {
	return lr.winEnd > 0 && t >= lr.winStart && t < lr.winEnd
}

func newSock() (*sock, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	s := &sock{
		conn: c, dec: rtp.NewCodec(),
		buf: make([]byte, transport.MaxDatagram), oob: make([]byte, 64),
	}
	if err = c.SetReadBuffer(loadgenRecvBuf); err == nil {
		s.raw, err = c.SyscallConn()
	}
	if err == nil {
		var serr error
		err = s.raw.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
		})
		if err == nil && serr != nil {
			err = fmt.Errorf("SO_TIMESTAMPNS: %w", serr)
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

// newLiveRun builds the loadgen side (sockets, players, links) before the
// hub exists, so none of it is charged to set-up.
func newLiveRun(plan Plan, tl Timeline) (*liveRun, error) {
	lr := &liveRun{plan: plan, tl: tl, wenc: wireEncoder(plan.Workload.Wire)}
	for s := range lr.socks {
		sk, err := newSock()
		if err != nil {
			lr.closeSocks()
			return nil, err
		}
		lr.socks[s] = sk
	}
	if plan.Workload.Rough {
		lr.sched = vclock.NewScheduler()
	}
	for _, sp := range plan.Sessions {
		ls := &liveSession{p: NewPlayer(sp, plan.Workload.Uplink)}
		if lr.sched != nil {
			for s, cfg := range [numStreams]netsim.LinkConfig{sp.ScreenDown, sp.AccessoryDown} {
				s := s
				ls.links[s] = netsim.NewLink(cfg, lr.sched, func(pk netsim.Packet) {
					ls.p.PushMedia(s, pk.Payload.(*transport.Media), float64(lr.sched.Now()))
				})
			}
			ls.up = netsim.NewLink(sp.ChatUp, lr.sched, func(pk netsim.Packet) {
				lr.sendWire(pk.Payload.([]byte))
			})
		}
		lr.sessions = append(lr.sessions, ls)
	}
	lr.order = append(lr.order, lr.sessions...)
	sort.SliceStable(lr.order, func(i, j int) bool {
		return lr.order[i].p.plan.TickPhase < lr.order[j].p.plan.TickPhase
	})
	return lr, nil
}

func (lr *liveRun) closeSocks() {
	for _, s := range lr.socks {
		if s != nil {
			s.conn.Close()
		}
	}
}

// sendWire transmits one encoded datagram from the controller socket.
func (lr *liveRun) sendWire(b []byte) {
	if _, err := lr.socks[streamAccessory].conn.WriteToUDPAddrPort(b, lr.hubAddr); err == nil {
		lr.wireBytes += int64(len(b))
	}
}

// hello (re)announces every session that has not yet received media.
func (lr *liveRun) hello() error {
	for _, ls := range lr.sessions {
		if ls.p.joined {
			continue
		}
		for s, sk := range lr.socks {
			h := transport.Hello{Session: ls.p.plan.ID, Role: endpointRoles[s]}
			if _, err := sk.conn.WriteToUDPAddrPort(lr.wenc.AppendHello(nil, h), lr.hubAddr); err != nil {
				return fmt.Errorf("hello session %d: %w", h.Session, err)
			}
		}
	}
	return nil
}

// drain reads everything the socket holds, without blocking, appending
// each decodable datagram and its kernel receive time to the inbox.
func (lr *liveRun) drain(stream int) error {
	sk := lr.socks[stream]
	var rerr error
	err := sk.raw.Read(func(fd uintptr) bool {
		for {
			n, oobn, _, _, err := syscall.Recvmsg(int(fd), sk.buf, sk.oob, syscall.MSG_DONTWAIT)
			if err == syscall.EINTR {
				continue
			}
			if err != nil {
				if err != syscall.EAGAIN {
					rerr = err
				}
				return true // never wait for readiness: the caller sleeps on the device clock
			}
			at, ok := recvTime(sk.oob[:oobn])
			if !ok {
				rerr = errors.New("datagram without a kernel receive timestamp")
				return true
			}
			// Decode into the next inbox slot, reusing its payload capacity.
			k := len(lr.inbox)
			if k == cap(lr.inbox) {
				lr.inbox = append(lr.inbox, inMsg{})
			} else {
				lr.inbox = lr.inbox[:k+1]
			}
			slot := &lr.inbox[k]
			if sk.dec.DecodeInto(&slot.msg, sk.buf[:n]) != nil || slot.msg.Type != transport.TypeMedia {
				lr.inbox = lr.inbox[:k] // not a media frame of ours
				continue
			}
			slot.at, slot.stream = float64(at-lr.epochNS)/1e9, stream
		}
	})
	if err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("loadgen receive: %w", err)
	}
	return nil
}

// recvTime extracts the SCM_TIMESTAMPNS control message: the wall-clock
// time (ns) the kernel received the datagram.
func recvTime(oob []byte) (int64, bool) {
	for len(oob) >= syscall.CmsgLen(0) {
		l := int(binary.NativeEndian.Uint64(oob))
		level := int32(binary.NativeEndian.Uint32(oob[8:]))
		typ := int32(binary.NativeEndian.Uint32(oob[12:]))
		if l < syscall.CmsgLen(0) || l > len(oob) {
			return 0, false
		}
		if level == syscall.SOL_SOCKET && typ == syscall.SCM_TIMESTAMPNS && l >= syscall.CmsgLen(16) {
			data := oob[syscall.CmsgLen(0):]
			return int64(binary.NativeEndian.Uint64(data))*1e9 + int64(binary.NativeEndian.Uint64(data[8:])), true
		}
		oob = oob[min(syscall.CmsgSpace(l-syscall.CmsgLen(0)), len(oob)):]
	}
	return 0, false
}

// advance delivers every impaired packet whose arrival time has come.
func (lr *liveRun) advance(t float64) {
	if lr.sched != nil && vclock.Time(t) > lr.sched.Now() {
		lr.sched.RunUntil(vclock.Time(t))
	}
}

// onMedia replays one downlink frame at its kernel receive time.
func (lr *liveRun) onMedia(in *inMsg) {
	id := int(in.msg.Session)
	if id < 1 || id > len(lr.sessions) {
		return
	}
	ls := lr.sessions[id-1]
	m := &in.msg.Media
	a := &ls.arr[in.stream]
	if !a.seen {
		a.seen, a.firstSeq = true, m.Seq
	}
	if lr.inWindow(in.at) {
		lr.wireBytes += int64(wireHeaderLen + transport.MediaBodyLen(*m))
		a.offsets = append(a.offsets, in.at-float64(int32(m.Seq-a.firstSeq))*frameSec)
	}
	lr.advance(in.at)
	if link := ls.links[in.stream]; link != nil {
		cp := *m
		cp.Samples = append([]int16(nil), m.Samples...)
		link.Send(&cp)
		return
	}
	ls.p.PushMedia(in.stream, m, in.at)
}

// tick runs the next device tick and uplinks its chat frame.
func (lr *liveRun) tick(now float64) error {
	ls := lr.order[lr.cursor]
	due := ls.p.TickTime(lr.round)
	if lr.inWindow(due) {
		lr.tickLateMS = append(lr.tickLateMS, (now-due)*1000)
	}
	lr.advance(due)
	if chat, ok := ls.p.Tick(); ok {
		b, err := lr.wenc.AppendChat(lr.chatBuf[:0], chat)
		if err != nil {
			return fmt.Errorf("encode chat: %w", err)
		}
		lr.chatBuf = b
		if ls.up != nil {
			ls.up.Send(append([]byte(nil), b...))
		} else {
			lr.sendWire(b)
		}
	}
	if lr.cursor++; lr.cursor == len(lr.order) {
		lr.cursor, lr.round = 0, lr.round+1
	}
	return nil
}

// nextDue is the loadgen-clock time of the next device tick.
func (lr *liveRun) nextDue() float64 { return lr.order[lr.cursor].p.TickTime(lr.round) }

// step empties both sockets and replays, in time order, every arrival and
// every device tick that is due by now.
func (lr *liveRun) step() error {
	// Everything that arrived before `now` is in the sockets by the time
	// they are read, so ticks due by `now` see every frame that beat them.
	now := lr.now()
	lr.inbox = lr.inbox[:0]
	for s := range lr.socks {
		if err := lr.drain(s); err != nil {
			return err
		}
	}
	in := lr.inbox
	sort.SliceStable(in, func(i, j int) bool { return in[i].at < in[j].at })
	i := 0
	for due := lr.nextDue(); due <= now; due = lr.nextDue() {
		for ; i < len(in) && in[i].at < due; i++ {
			lr.onMedia(&in[i])
		}
		if err := lr.tick(lr.now()); err != nil {
			return err
		}
	}
	for ; i < len(in); i++ {
		lr.onMedia(&in[i])
	}
	lr.advance(now)
	return nil
}

// hubLines consumes whatever the child has printed: the "ready" line and
// stats replies.
func (lr *liveRun) hubLines() error {
	for {
		select {
		case line, ok := <-lr.hub.lines:
			if !ok {
				return errors.New("hub child exited mid-run")
			}
			switch {
			case line == "ready":
				lr.hubReady = lr.now()
			case strings.HasPrefix(line, "{"):
				var st HubStats
				if err := json.Unmarshal([]byte(line), &st); err != nil {
					return fmt.Errorf("hub stats reply: %w", err)
				}
				lr.polls = append(lr.polls, poll{at: lr.now(), st: st})
			}
		default:
			return nil
		}
	}
}

// loop is the device clock: replay what is due, look at the hub's stdout,
// sleep until the next tick, until done reports true.
func (lr *liveRun) loop(done func(now float64) bool) error {
	for {
		if err := lr.step(); err != nil {
			return err
		}
		if err := lr.hubLines(); err != nil {
			return err
		}
		now := lr.now()
		if done(now) {
			return nil
		}
		time.Sleep(time.Duration((lr.nextDue() - now) * float64(time.Second)))
	}
}

// setup spawns the hub, joins every session and returns once the hub
// reports all of them streaming. It returns the set-up time: child spawn
// to last session ready.
func (lr *liveRun) setup() (time.Duration, error) {
	lr.epochNS = time.Now().UnixNano()
	hp, err := startHub(len(lr.sessions), lr.plan.Workload.Uplink)
	if err != nil {
		return 0, err
	}
	lr.hub = hp
	ap := hp.Addr.AddrPort()
	lr.hubAddr = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	lr.helloAt = lr.now()
	if err := lr.hello(); err != nil {
		return 0, err
	}
	retry := lr.helloAt + 0.5
	err = lr.loop(func(now float64) bool {
		if lr.hubReady > 0 || now > 30 {
			return true
		}
		if now > retry {
			retry = now + 0.5
			_ = lr.hello() // a lost hello is retried; send errors surface on the first call
		}
		return false
	})
	if err != nil {
		return 0, err
	}
	if lr.hubReady == 0 {
		return 0, errors.New("sessions did not become ready within 30 s")
	}
	return time.Duration(lr.hubReady * float64(time.Second)), nil
}

// run measures: warm-up, then the window, polling the hub once a second.
// It returns the child's final report.
func (lr *liveRun) run() (*HubFinal, error) {
	lr.runStart = lr.now()
	lr.winStart = lr.runStart + lr.tl.Warmup.Seconds()
	lr.winEnd = lr.winStart + lr.tl.Window.Seconds()
	for _, ls := range lr.sessions {
		ls.p.Score.SetWindow(lr.winStart, int(lr.tl.Window/time.Second))
	}
	var script *roughScript
	if lr.plan.Workload.Rough {
		script = newRoughScript(lr.winStart, lr.tl.Window.Seconds(), lr.runStart+lr.tl.StepAt.Seconds(), len(lr.sessions))
	}
	nextPoll := lr.runStart
	wantPolls := int(lr.tl.Total()/pollEvery) + 1
	err := lr.loop(func(now float64) bool {
		if script != nil {
			script.apply(now, lr.plan.Sessions, func(i int) [numPaths]*netsim.Link {
				ls := lr.sessions[i]
				return [numPaths]*netsim.Link{ls.links[streamScreen], ls.links[streamAccessory], ls.up}
			})
		}
		if lr.cpu0.wall == 0 && now >= lr.winStart {
			lr.cpu0 = sampleCPU(now)
		}
		if now >= nextPoll && nextPoll <= lr.winEnd+1e-9 {
			nextPoll += pollEvery.Seconds()
			if err := lr.hub.Ask("stats"); err != nil {
				return true
			}
		}
		if now < lr.winEnd {
			return false
		}
		if lr.cpu1.wall == 0 {
			lr.cpu1 = sampleCPU(now)
			lr.drops = lr.socketDrops()
		}
		// Keep serving until the window's last poll is answered.
		return len(lr.polls) >= wantPolls || now > lr.winEnd+5
	})
	if err != nil {
		return nil, err
	}
	final, err := lr.hub.Quit()
	lr.hub = nil
	return final, err
}

// close stops the hub child if it still runs and closes both sockets.
func (lr *liveRun) close() {
	if lr.hub != nil {
		lr.hub.Kill()
		lr.hub = nil
	}
	lr.closeSocks()
}

// socketDrops sums the kernel's receive drops on both loadgen sockets.
func (lr *liveRun) socketDrops() int64 {
	var n int64
	for _, s := range lr.socks {
		n += udpDrops(s.conn.LocalAddr().(*net.UDPAddr).Port)
	}
	return n
}

// cpuSample is the loadgen's own CPU clock at a loadgen-clock instant.
type cpuSample struct {
	wall float64
	cpu  time.Duration
	// steal and total are the machine's /proc/stat steal and all-state
	// jiffies: CPU the hypervisor gave to someone else.
	steal, total int64
}

func sampleCPU(now float64) cpuSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	steal, total := hostSteal()
	return cpuSample{wall: now, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), steal: steal, total: total}
}

// hostSteal reads the aggregate cpu line of /proc/stat: steal jiffies and
// the sum over all states (0, 0 when unreadable).
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already inside user time
			total += n
		}
	}
	return steal, total
}
