package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Workload files let users define workloads without recompiling: a JSON
// document of synthetic profiles and phased composites, loaded by the CLIs
// (`-workloads file.json` on fusesim, `-workloadfile` on fusetables, the
// fuseserve flag) and accepted inline by POST /v1/batch. The schema uses its
// own lowercase field names — deliberately decoupled from the Profile struct,
// whose Go field names are part of the result store's key material and must
// never grow encoding tags.
//
// Example:
//
//	{
//	  "profiles": [
//	    {"name": "mlstress", "suite": "Custom", "description": "...",
//	     "apki": 120, "mix": {"wm": 0.35, "readIntensive": 0.25,
//	     "worm": 0.30, "woro": 0.10}, "workingSetBlocks": 420,
//	     "irregular": 0.4, "wormReuse": 3}
//	  ],
//	  "phased": [
//	    {"name": "train-step", "phases": [
//	      {"profile": "mlstress", "instructions": 2000},
//	      {"profile": "GEMM"}
//	    ]}
//	  ]
//	}

// FileMix is the read-level mix of a file-defined profile.
type FileMix struct {
	WM            float64 `json:"wm"`
	ReadIntensive float64 `json:"readIntensive"`
	WORM          float64 `json:"worm"`
	WORO          float64 `json:"woro"`
}

// FileProfile is one synthetic profile of a workload file.
type FileProfile struct {
	Name             string  `json:"name"`
	Suite            string  `json:"suite,omitempty"`
	Description      string  `json:"description,omitempty"`
	APKI             float64 `json:"apki"`
	Mix              FileMix `json:"mix"`
	WorkingSetBlocks int     `json:"workingSetBlocks"`
	Irregular        float64 `json:"irregular"`
	WORMReuse        int     `json:"wormReuse"`
}

// Profile converts the file schema into the internal Profile.
func (f FileProfile) Profile() Profile {
	suite := f.Suite
	if suite == "" {
		suite = "Custom"
	}
	return Profile{
		Name:             f.Name,
		Suite:            suite,
		Description:      f.Description,
		APKI:             f.APKI,
		Mix:              ReadLevelMix{WM: f.Mix.WM, ReadIntensive: f.Mix.ReadIntensive, WORM: f.Mix.WORM, WORO: f.Mix.WORO},
		WorkingSetBlocks: f.WorkingSetBlocks,
		Irregular:        f.Irregular,
		WORMReuse:        f.WORMReuse,
	}
}

// FilePhase is one stage of a file-defined phased workload. Profile may name
// a builtin benchmark, a profile defined earlier in the same file, or any
// previously registered profile.
type FilePhase struct {
	Profile      string `json:"profile"`
	Instructions uint64 `json:"instructions,omitempty"`
}

// FilePhased is a phased workload of a workload file.
type FilePhased struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Phases      []FilePhase `json:"phases"`
}

// WorkloadFile is the parsed form of a workload file.
type WorkloadFile struct {
	Profiles []FileProfile `json:"profiles,omitempty"`
	Phased   []FilePhased  `json:"phased,omitempty"`
}

// ParseWorkloads parses a workload file, rejecting unknown fields so a typo
// in a knob name fails loudly instead of silently simulating the default,
// and anything but whitespace after the document, so a second document or
// trailing garbage is not silently dropped.
func ParseWorkloads(data []byte) (*WorkloadFile, error) {
	var f WorkloadFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&f)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after the JSON document")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("trace: parsing workload file: %w", err)
	}
	return &f, nil
}

// Register validates and registers every workload of the file — phased
// entries may reference profiles defined earlier in the same file — and
// returns the registered names in file order. Registration is atomic: a
// defective entry anywhere in the file (or a name conflict with the
// registry) leaves the registry untouched, so a rejected load or batch
// request never leaves half its definitions behind. Re-registering an
// identical file is a no-op.
func (f *WorkloadFile) Register() ([]string, error) {
	var (
		ws    []Workload
		names []string
		local = make(map[string]Profile, len(f.Profiles))
	)
	for _, fp := range f.Profiles {
		p := fp.Profile()
		local[p.Name] = p
		ws = append(ws, Synthetic(p))
		names = append(names, p.Name)
	}
	for i, fp := range f.Phased {
		w, err := fp.workload(local)
		if err != nil {
			return nil, fmt.Errorf("phased[%d]: %w", i, err)
		}
		ws = append(ws, w)
		names = append(names, w.Name())
	}
	if err := RegisterAll(ws...); err != nil {
		return nil, err
	}
	return names, nil
}

// workload resolves a file-defined phased workload against the profiles of
// its own file first, then the registry.
func (fp FilePhased) workload(local map[string]Profile) (*PhasedWorkload, error) {
	w := &PhasedWorkload{WorkloadName: fp.Name, Description: fp.Description}
	for i, ph := range fp.Phases {
		prof, ok := local[ph.Profile]
		if !ok {
			prof, ok = ProfileByName(ph.Profile)
		}
		if !ok {
			return nil, fmt.Errorf("%s: phase %d references unknown profile %q", fp.Name, i, ph.Profile)
		}
		w.Phases = append(w.Phases, Phase{Profile: prof, Instructions: ph.Instructions})
	}
	return w, nil
}

// LoadWorkloadFile parses and registers a workload file from disk, returning
// the registered workload names in file order.
func LoadWorkloadFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	f, err := ParseWorkloads(data)
	if err != nil {
		return nil, err
	}
	names, err := f.Register()
	if err != nil {
		return names, fmt.Errorf("trace: workload file %s: %w", path, err)
	}
	return names, nil
}
