package transport

import (
	"context"
	"errors"
	"testing"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// TestNewProtocolMachine covers the machines the node and cluster commands
// host: each CLI protocol builds, strong BA takes only a binary input, and
// an unknown name is rejected as such.
func TestNewProtocolMachine(t *testing.T) {
	crypto := mustSetup(t, 5)
	for _, c := range []struct {
		protocol string
		input    string
		ok       bool
	}{
		{"bb", "v", true},
		{"wba", "v", true},
		{"strongba", "1", true},
		{"strongba", "x", false},
		{"nope", "", false},
	} {
		m, err := NewProtocolMachine("node", c.protocol, crypto.Params, crypto, 1, 0, types.Value(c.input))
		if c.ok && (err != nil || m == nil) {
			t.Errorf("%s %q: %v", c.protocol, c.input, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s %q accepted", c.protocol, c.input)
		}
	}
	if _, err := NewProtocolMachine("node", "nope", crypto.Params, crypto, 1, 0, nil); !errors.Is(err, protocols.ErrUnknown) {
		t.Errorf("unknown protocol: %v, want protocols.ErrUnknown", err)
	}
}

// begunMachine records whether a node ever started it.
type begunMachine struct {
	idleMachine
	begun bool
}

func (m *begunMachine) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.begun = true
	return outs
}

// TestRunClusterMachineErrorStartsNoNode: a factory that fails for process
// 2 fails the run before any node starts — no machine begins, and no
// goroutine or socket is left behind.
func TestRunClusterMachineErrorStartsNoNode(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 5)
	errFactory := errors.New("no machine for process 2")
	var built []*begunMachine
	_, err := RunCluster(context.Background(), ClusterOpts{
		Node: Config{Params: crypto.Params, Crypto: crypto},
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			if id == 2 {
				return nil, errFactory
			}
			m := &begunMachine{}
			built = append(built, m)
			return m, nil
		},
	})
	if !errors.Is(err, errFactory) {
		t.Fatalf("RunCluster returned %v, want the factory's error", err)
	}
	if len(built) != 2 {
		t.Errorf("factory built %d machines before failing, want 2", len(built))
	}
	for i, m := range built {
		if m.begun {
			t.Errorf("process %d's machine began", i)
		}
	}
}
