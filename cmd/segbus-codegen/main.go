// segbus-codegen implements the paper's future-work step: it generates
// the arbiter controllers that realise an application schedule — the
// grant programs of every segment arbiter and the central arbiter's
// connection schedule — from the PSDF and PSM models.
//
// Usage:
//
//	segbus-codegen -model design.sbd                  # schedule listing
//	segbus-codegen -model design.sbd -vhdl -out gen/  # VHDL skeletons
//	segbus-codegen -psdf a.xsd -psm b.xsd -vhdl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"segbus/internal/codegen"
	"segbus/internal/dsl"
	"segbus/internal/obs/profflag"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
	"segbus/internal/schema"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "segbus-codegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("segbus-codegen", flag.ContinueOnError)
	modelPath := fs.String("model", "", "textual model description with a platform section")
	psdfPath := fs.String("psdf", "", "PSDF XML scheme (with -psm, alternative to -model)")
	psmPath := fs.String("psm", "", "PSM XML scheme")
	vhdl := fs.Bool("vhdl", false, "emit VHDL scheduler skeletons instead of the listing")
	outDir := fs.String("out", "", "write the output to <out>/<app>_schedulers.{txt,vhd} instead of stdout")
	pf := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pf.PrintVersion(stdout) {
		return nil
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop(os.Stderr)

	var m *psdf.Model
	var plat *platform.Platform
	switch {
	case *modelPath != "":
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		doc, err := dsl.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		if diags := doc.Validate(); diags.HasErrors() {
			return fmt.Errorf("model validation failed:\n%s", diags)
		}
		if doc.Platform == nil {
			return fmt.Errorf("the model description has no platform section")
		}
		m, plat = doc.Model, doc.Platform
	case *psdfPath != "" && *psmPath != "":
		psdfXML, err := os.ReadFile(*psdfPath)
		if err != nil {
			return err
		}
		psmXML, err := os.ReadFile(*psmPath)
		if err != nil {
			return err
		}
		if m, err = schema.ParsePSDF(psdfXML); err != nil {
			return err
		}
		if plat, err = schema.ParsePSM(psmXML); err != nil {
			return err
		}
	default:
		fs.Usage()
		return fmt.Errorf("need -model, or -psdf together with -psm")
	}

	prog, err := codegen.Generate(sched.NewPair(m, plat))
	if err != nil {
		return err
	}
	text := prog.Listing()
	ext := "txt"
	if *vhdl {
		text = prog.VHDL()
		ext = "vhd"
	}
	if *outDir == "" {
		fmt.Fprint(stdout, text)
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	name := m.Name()
	if name == "" {
		name = "app"
	}
	path := filepath.Join(*outDir, fmt.Sprintf("%s_schedulers.%s", name, ext))
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}
