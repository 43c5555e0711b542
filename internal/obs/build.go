package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary: what /v1/version serves,
// what bb_build_info exposes, and what every diagnostic bundle is
// stamped with so a postmortem names the exact build it came from.
type BuildInfo struct {
	Module      string `json:"module"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Dirty       bool   `json:"dirty"`
	WireVersion int    `json:"wire_version"`
}

var (
	buildOnce sync.Once
	buildBase BuildInfo
)

// Build returns the binary's build identity with the given negotiated
// wire protocol version stamped in. The VCS fields come from
// debug.ReadBuildInfo and degrade to "unknown" for test binaries and
// builds outside a checkout. obs cannot import internal/wire (wire
// imports obs), so the caller passes wire.Version down.
func Build(wireVersion int) BuildInfo {
	buildOnce.Do(func() {
		buildBase = BuildInfo{
			Module:    "unknown",
			GoVersion: runtime.Version(),
			Commit:    "unknown",
		}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Path != "" {
			buildBase.Module = bi.Main.Path
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildBase.Commit = s.Value
			case "vcs.modified":
				buildBase.Dirty = s.Value == "true"
			}
		}
	})
	b := buildBase
	b.WireVersion = wireVersion
	return b
}

// WriteBuildMetrics emits the bb_build_info gauge: a constant 1 whose
// labels carry the build identity, the standard Prometheus idiom for
// joining versions onto every other series.
func WriteBuildMetrics(w io.Writer, b BuildInfo) {
	fmt.Fprintf(w, "# HELP bb_build_info Build identity (constant 1; the labels are the data).\n")
	fmt.Fprintf(w, "# TYPE bb_build_info gauge\n")
	fmt.Fprintf(w, "bb_build_info{commit=%q,go_version=%q,wire_version=\"%d\",dirty=%q} 1\n",
		b.Commit, b.GoVersion, b.WireVersion, fmt.Sprintf("%t", b.Dirty))
}
