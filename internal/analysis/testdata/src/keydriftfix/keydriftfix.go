// Package keydriftfix is a keydrift analyzer fixture: a miniature of the
// real config key plumbing with one violation of each rule.
package keydriftfix

// Config mimics config.GPUConfig: a struct serialised verbatim into the
// store-key material.
//
//fuselint:keyroot
type Config struct {
	Name string
	SMs  int

	// Nested keyed structs are checked recursively.
	Cache CacheConfig

	secret int // want `Config.secret is silently excluded from the store-key material`

	//fuselint:execonly
	Scratch []byte `json:"-"` // want `//fuselint:execonly needs a justification`

	//fuselint:execonly contradicts the json tag below on purpose
	Leaked int // want `Config.Leaked is annotated //fuselint:execonly but is still serialised`

	//fuselint:execonly derived on load, never part of identity
	cache map[string]int
}

// CacheConfig is reached through Config.Cache, so its fields obey the same
// rules.
type CacheConfig struct {
	Ways int
	sets int // want `CacheConfig.sets is silently excluded from the store-key material`
}

func use(c Config) (int, map[string]int) { return c.secret + c.Cache.sets, c.cache }
