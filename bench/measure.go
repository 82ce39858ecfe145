package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bytesWritten is the process's write-syscall byte count (wchar of
// /proc/self/io); ok is false where the kernel does not expose it.
func bytesWritten() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, found := strings.CutPrefix(line, "wchar:"); found {
			n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// heapBytes is the live Go heap after a forced collection.
func heapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// envStamp is the context a number needs to be compared with another: the
// machine class, the runtime, and where the data directory lives.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDir    string `json:"data_dir"`
	DataFS     string `json:"data_fs"`
	Flush      string `json:"flush_policy"`
}

var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func stampEnv(dataDir string) envStamp {
	e := envStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataDir: dataDir,
		Flush:   "fsync on (Options.NoSync=false) in every measured phase; seeding in set-up may use NoSync where the workload says so",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = string(bytes.TrimSpace(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		magic := int64(st.Type)
		if name, ok := fsNames[magic]; ok {
			e.DataFS = name
		} else {
			e.DataFS = fmt.Sprintf("0x%x", magic)
		}
	}
	return e
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s data=%s (%s)",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.DataDir, e.DataFS)
}

// defaultDataRoot puts data on tmpfs when there is one, so the shared block
// device's flush latency stays out of the numbers; otherwise in the system's
// temporary directory; and where a sandbox lets the process write nowhere but
// its working tree, under bench/out.
func defaultDataRoot() string {
	for _, dir := range []string{"/dev/shm", os.TempDir()} {
		if f, err := os.CreateTemp(dir, "flordb-bench-probe"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return dir
		}
	}
	return filepath.Join("bench", "out")
}
