package wire

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Rank→address rendezvous. A job needs every process to know every
// other process's listen address before Connect can build the mesh, and
// one static peers file is how it learns them: one line per node, the
// same file on every process, naming the address that node listens on.
// Rank ranges need no rendezvous: node i hosts SplitRanks(ranks, nodes)'s
// range i on every process alike.

// ParsePeersFile reads a job's node map: one "<node> <addr>" pair per
// line, blank lines and #-comments ignored. Every node in [0,nodes) must
// appear exactly once; the addresses come back indexed by node.
func ParsePeersFile(path string, nodes int) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParsePeers(string(data), nodes)
}

// ParsePeers is ParsePeersFile on in-memory content.
func ParsePeers(content string, nodes int) ([]string, error) {
	addrs := make([]string, nodes)
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
		if addrs[node] != "" {
			return nil, fmt.Errorf("peers file line %d: node %d listed twice", lineNo+1, node)
		}
		addrs[node] = fields[1]
	}
	for i, addr := range addrs {
		if addr == "" {
			return nil, fmt.Errorf("peers file missing node %d (want all of 0..%d)", i, nodes-1)
		}
	}
	return addrs, nil
}
