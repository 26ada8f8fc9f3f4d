// Real-network distributed execution: flag validation, the single-rank
// runner behind -net tcp|unix, and the local launcher behind -net launch.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mudbscan/internal/data"
	"mudbscan/internal/dist"
	"mudbscan/internal/geom"
	"mudbscan/internal/mpi/nettrans"
)

// netConfig is the validated form of the -net/-rank/-peers flag triple.
type netConfig struct {
	network string // "tcp" or "unix"; unset when launch is true
	launch  bool
	rank    int
	peers   []string
}

// parseNetFlags validates the real-network flags against each other and
// against the simulation flags. It returns nil when -net is absent. Every
// rejection is a usage error with a message saying what to change.
func parseNetFlags(fs *flag.FlagSet, netMode string, rank int, peers, mode string, ranks int, distSerial bool, chaosSeed int64) (*netConfig, error) {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if netMode == "" {
		switch {
		case set["rank"]:
			return nil, usagef("-rank only applies with -net tcp|unix")
		case set["peers"]:
			return nil, usagef("-peers only applies with -net tcp|unix")
		}
		return nil, nil
	}
	if netMode != "tcp" && netMode != "unix" && netMode != "launch" {
		return nil, usagef("unknown -net %q (want tcp, unix or launch)", netMode)
	}
	if mode != "dist" {
		return nil, usagef("-net requires -mode dist, got -mode %q", mode)
	}
	if distSerial {
		return nil, usagef("-dist-serial only applies to the single-process simulation; drop it when using -net")
	}
	if chaosSeed != 0 {
		return nil, usagef("-chaos-seed only applies to the single-process simulation; fault injection over sockets is test-only")
	}

	if netMode == "launch" {
		if set["rank"] || set["peers"] {
			return nil, usagef("-net launch starts every rank itself; drop -rank and -peers (use -ranks to size the world)")
		}
		if ranks < 1 || ranks&(ranks-1) != 0 {
			return nil, usagef("-ranks must be a power of two, got %d", ranks)
		}
		return &netConfig{launch: true}, nil
	}

	if peers == "" {
		return nil, usagef("-net %s needs -peers, a comma-separated list where entry i is rank i's listen address", netMode)
	}
	peerList := strings.Split(peers, ",")
	for i := range peerList {
		peerList[i] = strings.TrimSpace(peerList[i])
		if peerList[i] == "" {
			return nil, usagef("-peers entry %d is empty", i)
		}
	}
	p := len(peerList)
	if p&(p-1) != 0 {
		return nil, usagef("the world size is the -peers entry count and must be a power of two, got %d entries", p)
	}
	if set["ranks"] && ranks != p {
		return nil, usagef("-ranks %d disagrees with the %d -peers entries; drop -ranks (the peer list sizes the world)", ranks, p)
	}
	if !set["rank"] {
		return nil, usagef("-net %s needs -rank, this process's index into -peers", netMode)
	}
	if rank < 0 || rank >= p {
		return nil, usagef("-rank %d is outside the %d-entry -peers list (want 0..%d)", rank, p, p-1)
	}
	return &netConfig{network: netMode, rank: rank, peers: peerList}, nil
}

// runNetRank executes this process's rank of a multi-process world over real
// sockets. Every peer process must be started with the same dataset and
// parameters; only rank 0 writes labels and stats.
func runNetRank(cfg *netConfig, pts []geom.Point, eps float64, minPts int, showStats bool, outPath string, stdout, stderr io.Writer, start time.Time) error {
	tr, err := nettrans.New(nettrans.Config{Network: cfg.network, Rank: cfg.rank, Peers: cfg.peers})
	if err != nil {
		return err
	}
	defer tr.Drain() // idempotent; the world normally shuts the transport down itself
	result, st, err := dist.MuDBSCAND(pts, eps, minPts, len(cfg.peers), dist.Options{
		Remote: &dist.Remote{Rank: cfg.rank, Transport: tr},
	})
	if err != nil {
		return err
	}
	if cfg.rank != 0 {
		return nil // rank 0 owns the assembled clustering
	}
	if showStats {
		fmt.Fprintf(stderr, "n=%d ranks=%d net=%s m=%d halo=%d commBytes=%d wallclock=%v time=%v\n",
			len(pts), st.Ranks, cfg.network, st.NumMCs, st.HaloPoints, st.Comm.TotalBytes(),
			st.WallClock, time.Since(start))
		printReliability(stderr, st)
		fmt.Fprintf(stderr, "clusters=%d cores=%d noise=%d\n",
			result.NumClusters, result.NumCorePoints(), result.NumNoise())
	}
	return data.WriteLabels(outPath, stdout, result.Labels)
}

// childCommand builds the command for one launched rank process. Tests
// override it to re-enter the test binary instead of os.Executable.
var childCommand = func(args []string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	return exec.Command(exe, args...), nil
}

// runLaunch forks ranks rank processes on loopback TCP and waits for them.
// The already-parsed dataset is materialised once into a temporary binary
// file so every child reads bit-identical floats regardless of how the
// parent's input was formatted; rank 0's labels and stats flow through to
// the parent's own -out/-stats destinations.
func runLaunch(ranks int, pts []geom.Point, eps float64, minPts int, showStats bool, outPath string, stdout, stderr io.Writer) error {
	addrs, cleanupAddrs, err := nettrans.ReserveAddrs("tcp", ranks)
	if err != nil {
		return err
	}
	defer cleanupAddrs()

	dir, err := os.MkdirTemp("", "mudbscan-launch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	inFile := filepath.Join(dir, "points.bin")
	f, err := os.Create(inFile)
	if err != nil {
		return err
	}
	if err := data.WriteBinary(f, pts); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	peerList := strings.Join(addrs, ",")
	cmds := make([]*exec.Cmd, ranks)
	// Only rank 0 writes to the parent's streams directly; the other ranks
	// capture stderr privately — exec copies each child's pipe from its own
	// goroutine, so sharing one writer across children would interleave (and,
	// for non-concurrency-safe writers, race).
	capture := make([]*bytes.Buffer, ranks)
	for r := 0; r < ranks; r++ {
		args := []string{
			"-mode", "dist", "-net", "tcp",
			"-rank", strconv.Itoa(r), "-peers", peerList,
			"-eps", strconv.FormatFloat(eps, 'g', -1, 64),
			"-minpts", strconv.Itoa(minPts),
			"-in", inFile,
		}
		if r == 0 {
			if outPath != "-" {
				args = append(args, "-out", outPath)
			}
			if showStats {
				args = append(args, "-stats")
			}
		}
		cmd, err := childCommand(args)
		if err != nil {
			return err
		}
		if r == 0 {
			if outPath == "-" {
				cmd.Stdout = stdout
			}
			cmd.Stderr = stderr
		} else {
			capture[r] = &bytes.Buffer{}
			cmd.Stderr = capture[r]
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			for i := 0; i < r; i++ {
				cmds[i].Process.Kill()
				cmds[i].Wait()
			}
			return fmt.Errorf("starting rank %d: %w", r, err)
		}
	}
	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			if r != 0 && capture[r].Len() > 0 {
				firstErr = fmt.Errorf("rank %d: %w\n%s", r, err, strings.TrimSpace(capture[r].String()))
			} else {
				firstErr = fmt.Errorf("rank %d: %w", r, err)
			}
		}
	}
	return firstErr
}
