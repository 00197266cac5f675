package main

import (
	"flag"
	"fmt"
	"sort"

	"seal"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// cmdSpecDB administers a spec store (internal/specdb): import a flat spec
// database, compact away superseded records, verify the file against the
// snapshot it replays to, query, or print the store's position and size.
// Exactly one mode per invocation.
func cmdSpecDB(args []string) error {
	fs := flag.NewFlagSet("specdb", flag.ExitOnError)
	db := fs.String("db", "", "spec store file (required; created by -import when missing)")
	importFile := fs.String("import", "", "import a flat spec database (JSON from `seal infer`) into the store, as one commit")
	compact := fs.Bool("compact", false, "rewrite the store as its live records only, dropping superseded ones")
	verify := fs.Bool("verify", false, "re-read the store, checking the header and every record checksum, record order, and that the replay matches the served snapshot")
	query := fs.String("query", "", "print specs matching comma-separated field=value terms (fields: scope, iface, api, origin, patch, forbidden)")
	stats := fs.Bool("stats", false, "print the store position (seq, keys), file size, and dead-record ratio")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("specdb: -db is required")
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	modes := 0
	for _, m := range []string{"import", "compact", "verify", "query", "stats"} {
		if set[m] {
			modes++
		}
	}
	if modes != 1 {
		return usageErr{msg: "specdb: exactly one of -import, -compact, -verify, -query, -stats is required"}
	}
	switch {
	case *importFile != "":
		flat, err := readSpecFile(*importFile)
		if err != nil {
			return err
		}
		added, skipped, err := seal.ImportSpecStore(*db, flat)
		if err != nil {
			return err
		}
		fmt.Printf("imported %d specs into %s (%d already present)\n", added, *db, skipped)
		return nil
	case *compact:
		st, err := specdb.Open(*db)
		if err != nil {
			return err
		}
		defer st.Close()
		cs, err := st.Compact()
		if err != nil {
			return err
		}
		fmt.Printf("compacted %s: %d keys, %d -> %d bytes (seq %d)\n",
			*db, cs.Keys, cs.BytesBefore, cs.BytesAfter, cs.Seq)
		return nil
	case *verify:
		st, err := specdb.OpenReadOnly(*db)
		if err != nil {
			return err
		}
		defer st.Close()
		vs, err := st.Verify()
		if err != nil {
			return err
		}
		fmt.Printf("ok: %d keys from %d records, %d bytes (seq %d)\n",
			vs.Keys, vs.Records, vs.Bytes, vs.Seq)
		return nil
	case *stats:
		st, err := specdb.OpenReadOnly(*db)
		if err != nil {
			return err
		}
		defer st.Close()
		ss := st.Stats()
		fmt.Printf("%s: seq %d, %d keys, %d bytes\n", ss.Path, ss.Seq, ss.Keys, ss.FileBytes)
		fmt.Printf("dead records: %.2f ratio\n", ss.DeadPageRatio)
		return nil
	default:
		q, err := specdb.ParseQuery(*query)
		if err != nil {
			return usageErr{msg: fmt.Sprintf("specdb: -query: %v", err)}
		}
		st, err := specdb.OpenReadOnly(*db)
		if err != nil {
			return err
		}
		defer st.Close()
		specs, err := st.Current().Query(q)
		if err != nil {
			return err
		}
		// Same per-scope catalog shape as `seal specs`.
		byScope := make(map[string][]*spec.Spec)
		var scopes []string
		for _, sp := range specs {
			k := sp.Scope()
			if _, ok := byScope[k]; !ok {
				scopes = append(scopes, k)
			}
			byScope[k] = append(byScope[k], sp)
		}
		sort.Strings(scopes)
		for _, k := range scopes {
			fmt.Printf("%s (%d)\n", k, len(byScope[k]))
			for _, sp := range byScope[k] {
				fmt.Printf("  %s  [%s, from %s]\n", sp.Constraint.String(), sp.Origin, sp.OriginPatch)
			}
			fmt.Println()
		}
		fmt.Printf("%d specifications matched across %d scopes\n", len(specs), len(scopes))
		return nil
	}
}
