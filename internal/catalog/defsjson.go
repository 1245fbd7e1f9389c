package catalog

import (
	"encoding/json"
	"fmt"

	"github.com/gridmeta/hybridcat/internal/core"
)

// DefJSON is the wire format for dynamic definitions, shared by the CLI
// (mdgen -defs / mdcat -defs) and the service's GET /defs endpoint:
//
//	[{"kind":"attribute","name":"grid","source":"ARPS"},
//	 {"kind":"attribute","name":"grid-stretching","source":"ARPS","parent":"grid"},
//	 {"kind":"element","name":"dx","source":"ARPS","parent":"grid","type":"float"}]
//
// Attributes must appear before any element or sub-attribute that names
// them as parent. Parent references are by attribute name.
type DefJSON struct {
	Kind   string `json:"kind"` // "attribute" or "element"
	Name   string `json:"name"`
	Source string `json:"source"`
	Parent string `json:"parent,omitempty"`
	Type   string `json:"type,omitempty"` // elements only
	Owner  string `json:"owner,omitempty"`
}

// LoadDefinitionsJSON registers dynamic definitions from the DefJSON
// format.
func (c *Catalog) LoadDefinitionsJSON(data []byte) error {
	var defs []DefJSON
	if err := json.Unmarshal(data, &defs); err != nil {
		return fmt.Errorf("catalog: bad definitions JSON: %w", err)
	}
	byName := map[string]int64{}
	for _, d := range defs {
		if d.Kind != "attribute" {
			continue
		}
		parent := int64(0)
		if d.Parent != "" {
			id, ok := byName[d.Parent]
			if !ok {
				return fmt.Errorf("catalog: attribute %q references undefined parent %q (parents must appear first)", d.Name, d.Parent)
			}
			parent = id
		}
		def, err := c.RegisterAttr(d.Name, d.Source, parent, d.Owner)
		if err != nil {
			return fmt.Errorf("catalog: attribute %s: %w", d.Name, err)
		}
		byName[d.Name] = def.ID
	}
	for _, d := range defs {
		switch d.Kind {
		case "attribute":
		case "element":
			dt, err := core.ParseDataType(d.Type)
			if err != nil {
				return fmt.Errorf("catalog: element %s: %w", d.Name, err)
			}
			parent, ok := byName[d.Parent]
			if !ok {
				return fmt.Errorf("catalog: element %q references undefined attribute %q", d.Name, d.Parent)
			}
			if _, err := c.RegisterElem(d.Name, d.Source, parent, dt, d.Owner); err != nil {
				return fmt.Errorf("catalog: element %s: %w", d.Name, err)
			}
		default:
			return fmt.Errorf("catalog: unknown definition kind %q", d.Kind)
		}
	}
	return nil
}

// DumpDefinitionsJSON renders the published dynamic definitions in the
// DefJSON format (parents before children).
func (c *Catalog) DumpDefinitionsJSON() ([]byte, error) {
	defs := c.Reg.Defs()
	var out []DefJSON
	attrName := map[int64]string{}
	for _, a := range defs.Attrs() {
		attrName[a.ID] = a.Name
		if !a.Dynamic {
			continue
		}
		d := DefJSON{Kind: "attribute", Name: a.Name, Source: a.Source, Owner: a.Owner}
		if a.ParentID != 0 {
			d.Parent = attrName[a.ParentID]
		}
		out = append(out, d)
	}
	for _, e := range defs.Elems() {
		owner := defs.AttrByID(e.AttrID)
		if owner == nil || !owner.Dynamic {
			continue
		}
		out = append(out, DefJSON{
			Kind: "element", Name: e.Name, Source: e.Source,
			Parent: owner.Name, Type: e.Type.String(), Owner: e.Owner,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
