package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Rank→address rendezvous. A job needs every process to know every
// other process's listen address before Connect can build the mesh.
// Two mechanisms are provided, both producing the same []NodeSpec:
//
//   - a static peers file (ParsePeersFile): addresses are fixed up
//     front, e.g. by a job script or by convention;
//   - a coordinator (ServeRendezvous, which node 0 of a job runs, +
//     Rendezvous): each node dials a well-known address, announces
//     itself, and receives the full map once everyone has checked in. The protocol is JSON lines — one
//     NodeSpec from each client, one NodeSpec array back — chosen for
//     debuggability over `nc`; the deterministic binary codec is not
//     needed here because rendezvous happens before the protocol clock
//     starts and carries no protocol state.

// ParsePeersFile reads a static rendezvous map: one "<node> <addr>"
// pair per line, blank lines and #-comments ignored. Rank ranges are
// derived from SplitRanks(ranks, nodes), so the file only pins
// addresses. Every node in [0,nodes) must appear exactly once.
func ParsePeersFile(path string, ranks, nodes int) ([]NodeSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParsePeers(string(data), ranks, nodes)
}

// ParsePeers is ParsePeersFile on in-memory content.
func ParsePeers(content string, ranks, nodes int) ([]NodeSpec, error) {
	specs := SplitRanks(ranks, nodes)
	seen := make([]bool, nodes)
	for lineNo, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("peers file line %d: want \"<node> <addr>\", got %q", lineNo+1, line)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil || node < 0 || node >= nodes {
			return nil, fmt.Errorf("peers file line %d: node index %q outside [0,%d)", lineNo+1, fields[0], nodes)
		}
		if seen[node] {
			return nil, fmt.Errorf("peers file line %d: node %d listed twice", lineNo+1, node)
		}
		seen[node] = true
		specs[node].Addr = fields[1]
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("peers file missing node %d (want all of 0..%d)", i, nodes-1)
		}
	}
	return specs, nil
}

// ServeRendezvous runs a one-shot coordinator on ln: it accepts
// connections until `nodes` distinct NodeSpec announcements have
// arrived, then writes the full sorted map back on every connection
// and closes them. It returns the map it distributed. The listener is
// closed on return. Announcements with duplicate node ids are rejected
// with an error line and their connection closed; the coordinator
// keeps waiting for the real peer.
func ServeRendezvous(ln net.Listener, nodes int, timeout time.Duration) ([]NodeSpec, error) {
	defer ln.Close()
	if timeout > 0 {
		if tl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			tl.SetDeadline(time.Now().Add(timeout))
		}
	}
	var (
		mu    sync.Mutex
		specs []NodeSpec
		conns = map[int]net.Conn{}
	)
	for len(conns) < nodes {
		conn, err := ln.Accept()
		if err != nil {
			mu.Lock()
			got := len(conns)
			mu.Unlock()
			return nil, fmt.Errorf("rendezvous: accept failed with %d/%d nodes checked in: %w", got, nodes, err)
		}
		var spec NodeSpec
		dec := json.NewDecoder(bufio.NewReader(conn))
		if err := dec.Decode(&spec); err != nil {
			fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
			conn.Close()
			continue
		}
		mu.Lock()
		if spec.Node < 0 || spec.Node >= nodes {
			mu.Unlock()
			fmt.Fprintf(conn, `{"error":"node index %d outside [0,%d)"}`+"\n", spec.Node, nodes)
			conn.Close()
			continue
		}
		if _, dup := conns[spec.Node]; dup {
			mu.Unlock()
			fmt.Fprintf(conn, `{"error":"node %d already checked in"}`+"\n", spec.Node)
			conn.Close()
			continue
		}
		conns[spec.Node] = conn
		specs = append(specs, spec)
		mu.Unlock()
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Node < specs[j].Node })
	payload, err := json.Marshal(specs)
	if err != nil {
		return nil, err
	}
	payload = append(payload, '\n')
	for _, conn := range conns {
		conn.Write(payload)
		conn.Close()
	}
	return specs, nil
}

// Rendezvous announces self to a coordinator at addr (ServeRendezvous,
// on node 0) and blocks until the full node map comes back. Dialing retries with backoff until timeout, since the
// coordinator may start after the nodes.
func Rendezvous(network, addr string, self NodeSpec, timeout time.Duration) ([]NodeSpec, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	backoff := 25 * time.Millisecond
	var lastErr error
	for time.Now().Before(deadline) {
		specs, err := rendezvousOnce(network, addr, self, deadline)
		if err == nil {
			return specs, nil
		}
		lastErr = err
		// A refused dial means the coordinator is not up yet; anything
		// after a successful dial is a protocol error worth surfacing.
		var perr *protocolError
		if errors.As(err, &perr) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("rendezvous: no coordinator at %s %s within %v: %w", network, addr, timeout, lastErr)
}

// protocolError marks rendezvous failures that retrying cannot fix.
type protocolError struct{ err error }

func (e *protocolError) Error() string { return e.err.Error() }
func (e *protocolError) Unwrap() error { return e.err }

func rendezvousOnce(network, addr string, self NodeSpec, deadline time.Time) ([]NodeSpec, error) {
	conn, err := (&net.Dialer{Deadline: deadline}).Dial(network, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	enc := json.NewEncoder(conn)
	if err := enc.Encode(self); err != nil {
		return nil, &protocolError{fmt.Errorf("rendezvous: announce: %w", err)}
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return nil, &protocolError{fmt.Errorf("rendezvous: waiting for node map: %w", err)}
	}
	var specs []NodeSpec
	if err := json.Unmarshal(line, &specs); err != nil {
		var coordErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(line, &coordErr) == nil && coordErr.Error != "" {
			return nil, &protocolError{fmt.Errorf("rendezvous: coordinator refused: %s", coordErr.Error)}
		}
		return nil, &protocolError{fmt.Errorf("rendezvous: bad node map: %w", err)}
	}
	return specs, nil
}
