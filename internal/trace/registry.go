package trace

import (
	"bytes"
	"fmt"
	"sync"
)

// The workload registry maps names to Workloads. The 21 builtin Table-II
// profiles are registered at package initialisation in the paper's figure
// order; user-defined workloads (from workload files, the fuseserve batch
// API, or direct Register calls) append after them. The registry is the
// single lookup path of the whole repository: sim.RunWorkload, engine jobs,
// the CLIs and the server all resolve workload names here, so a workload
// registered once is runnable everywhere.
var registry = struct {
	mu      sync.RWMutex
	order   []string
	byName  map[string]Workload
	builtin map[string]bool
}{
	byName:  make(map[string]Workload),
	builtin: make(map[string]bool),
}

func init() {
	for _, p := range profiles {
		if err := Register(Synthetic(p)); err != nil {
			panic(fmt.Sprintf("trace: registering builtin profile: %v", err))
		}
		registry.builtin[p.Name] = true
	}
}

// Register adds a workload to the registry. The workload is validated first —
// an invalid workload is never registered — and the name must be free:
// re-registering a name is an error unless the new workload's canonical key
// material is byte-identical to the registered one (an idempotent re-load of
// the same workload file is not an error; redefining a name to mean a
// different simulation is).
func Register(w Workload) error { return RegisterAll(w) }

// RegisterAll registers a set of workloads atomically: every entry is
// validated and checked against the registry (and against the set itself)
// before anything is committed, so a defective entry leaves the registry
// untouched. Workload-file loading and the server's inline definitions go
// through it — a rejected request must not leave half its definitions
// behind.
func RegisterAll(ws ...Workload) error {
	type entry struct {
		w        Workload
		material []byte
	}
	entries := make([]entry, 0, len(ws))
	for _, w := range ws {
		if w == nil {
			return fmt.Errorf("trace: cannot register a nil workload")
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("trace: register: %w", err)
		}
		material, err := w.KeyMaterial()
		if err != nil {
			return fmt.Errorf("trace: register %s: %w", w.Name(), err)
		}
		entries = append(entries, entry{w: w, material: material})
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	// Pass 1: every name must be free, or already bound (in the registry or
	// earlier in this set) to byte-identical key material.
	pending := make(map[string][]byte, len(entries))
	for _, e := range entries {
		old, ok := registry.byName[e.w.Name()]
		var oldMaterial []byte
		if ok {
			m, err := old.KeyMaterial()
			if err != nil {
				return fmt.Errorf("trace: register %s: %w", e.w.Name(), err)
			}
			oldMaterial = m
		} else if m, dup := pending[e.w.Name()]; dup {
			ok, oldMaterial = true, m
		}
		if ok && !bytes.Equal(oldMaterial, e.material) {
			return fmt.Errorf("trace: workload %q is already registered with different parameters", e.w.Name())
		}
		pending[e.w.Name()] = e.material
	}
	// Pass 2: commit (identical re-registrations are no-ops).
	for _, e := range entries {
		if _, ok := registry.byName[e.w.Name()]; ok {
			continue
		}
		registry.order = append(registry.order, e.w.Name())
		registry.byName[e.w.Name()] = e.w
	}
	return nil
}

// RegisterProfile registers a synthetic workload built from the profile.
func RegisterProfile(p Profile) error { return Register(Synthetic(p)) }

// Lookup resolves a workload name through the registry.
func Lookup(name string) (Workload, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	w, ok := registry.byName[name]
	return w, ok
}

// LookupWorkload is Lookup with the repository's single unknown-workload
// error: every layer (sim, engine, CLIs, server) resolves names through it,
// so a missing workload reads the same everywhere.
func LookupWorkload(name string) (Workload, error) {
	if w, ok := Lookup(name); ok {
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (not registered: builtin names are listed by trace.Names, custom ones come from a workload file or trace.Register)", name)
}

// IsBuiltin reports whether the name is one of the paper's 21 Table-II
// benchmarks.
func IsBuiltin(name string) bool {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.builtin[name]
}

// WorkloadNames returns every registered workload name: the builtins in
// figure order, then user registrations in registration order.
func WorkloadNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}

// BuiltinNames returns the paper's 21 benchmark names in figure order,
// regardless of what else has been registered. The experiment layer's default
// workload sets are pinned to it so that loading a workload file (or a server
// client registering inline workloads) never silently changes what a paper
// figure means.
func BuiltinNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	var out []string
	for _, name := range registry.order {
		if registry.builtin[name] {
			out = append(out, name)
		}
	}
	return out
}

// Profiles returns the registered synthetic profiles — the 21 paper
// benchmarks in figure order, followed by any user-registered profiles.
// Phased workloads have no single profile and are not included; enumerate
// them with WorkloadNames/Lookup.
func Profiles() []Profile {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	var out []Profile
	for _, name := range registry.order {
		if s, ok := registry.byName[name].(*SyntheticWorkload); ok {
			out = append(out, s.Profile)
		}
	}
	return out
}

// Names returns the registered synthetic-profile names (see Profiles).
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	var out []string
	for _, name := range registry.order {
		if _, ok := registry.byName[name].(*SyntheticWorkload); ok {
			out = append(out, name)
		}
	}
	return out
}

// ProfileByName looks a synthetic profile up by name.
func ProfileByName(name string) (Profile, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if s, ok := registry.byName[name].(*SyntheticWorkload); ok {
		return s.Profile, true
	}
	return Profile{}, false
}
