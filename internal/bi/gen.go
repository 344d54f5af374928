// Package bi implements a Public-BI-Benchmark-style workload modeled on
// the paper's CommonGovernment workbook (Section V-B, Table III).
//
// Substitution note: the Tableau Public data is closed (400 GB of user
// workbooks); this generator reproduces the three workload properties the
// paper's observations hinge on:
//
//  1. string-dominant schemas (half of all columns are strings, many
//     "dates and numerics stored as strings"),
//  2. most string columns draw from low/medium-cardinality domains with
//     Zipfian frequencies — they fit the USSR and profit from
//     pointer-equality and pre-computed hashes,
//  3. a few columns (description, award id) have very large dictionaries
//     that overflow the 512 kB region, producing the rejection regime of
//     the paper's Q6/Q8/Q20.
//
// NULL values are common, as the paper notes for the real workbooks.
package bi

import (
	"fmt"
	"math/rand"

	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Cardinalities of the string domains.
const (
	nAgencies  = 60
	nDepts     = 320
	nTypes     = 12
	nStatuses  = 6
	nVendors   = 2500
	nProducts  = 14000
	nOfficeIDs = 900
)

var statuses = []string{"ACTIVE", "CLOSED", "PENDING", "CANCELLED", "EXPIRED", "UNDER REVIEW"}
var contractTypes = []string{
	"FIRM FIXED PRICE", "COST PLUS FIXED FEE", "TIME AND MATERIALS",
	"LABOR HOURS", "COST NO FEE", "COST SHARING", "FIXED PRICE INCENTIVE",
	"FIXED PRICE REDETERMINATION", "INDEFINITE DELIVERY", "BLANKET PURCHASE",
	"COOPERATIVE AGREEMENT", "PURCHASE ORDER"}

var stateNames = []string{
	"ALABAMA", "ALASKA", "ARIZONA", "ARKANSAS", "CALIFORNIA", "COLORADO",
	"CONNECTICUT", "DELAWARE", "FLORIDA", "GEORGIA", "HAWAII", "IDAHO",
	"ILLINOIS", "INDIANA", "IOWA", "KANSAS", "KENTUCKY", "LOUISIANA",
	"MAINE", "MARYLAND", "MASSACHUSETTS", "MICHIGAN", "MINNESOTA",
	"MISSISSIPPI", "MISSOURI", "MONTANA", "NEBRASKA", "NEVADA",
	"NEW HAMPSHIRE", "NEW JERSEY", "NEW MEXICO", "NEW YORK",
	"NORTH CAROLINA", "NORTH DAKOTA", "OHIO", "OKLAHOMA", "OREGON",
	"PENNSYLVANIA", "RHODE ISLAND", "SOUTH CAROLINA", "SOUTH DAKOTA",
	"TENNESSEE", "TEXAS", "UTAH", "VERMONT", "VIRGINIA", "WASHINGTON",
	"WEST VIRGINIA", "WISCONSIN", "WYOMING", "PUERTO RICO", "GUAM",
	"DISTRICT OF COLUMBIA", "AMERICAN SAMOA", "NORTHERN MARIANAS",
	"VIRGIN ISLANDS"}

// zipf draws Zipf-distributed indices in [0, n): real BI string columns
// are heavily skewed toward a few frequent values.
type zipf struct{ z *rand.Zipf }

func newZipf(rng *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(rng, 1.3, 4, uint64(n-1))}
}

func (z zipf) draw() int { return int(z.z.Uint64()) }

// Gen generates the CommonGovernment-like "contracts" table with the
// given number of rows, plus a small "vendors" dimension table.
func Gen(rows int, seed int64) *storage.Catalog {
	rng := rand.New(rand.NewSource(seed))
	cat := storage.NewCatalog()

	agencyNames := make([]string, nAgencies)
	for i := range agencyNames {
		agencyNames[i] = fmt.Sprintf("DEPARTMENT OF %s ADMINISTRATION %02d", stateNames[i%len(stateNames)], i)
	}
	deptNames := make([]string, nDepts)
	for i := range deptNames {
		deptNames[i] = fmt.Sprintf("OFFICE OF PROCUREMENT SERVICES REGION %03d", i)
	}
	vendorNames := make([]string, nVendors)
	for i := range vendorNames {
		vendorNames[i] = fmt.Sprintf("VENDOR %05d INCORPORATED SERVICES", i)
	}
	productNames := make([]string, nProducts)
	for i := range productNames {
		productNames[i] = fmt.Sprintf("PRODUCT-SERVICE CODE %06d CATEGORY %03d", i, i%512)
	}

	agency := storage.NewColumn("agency", vec.Str, false)
	dept := storage.NewColumn("dept", vec.Str, true)
	state := storage.NewColumn("state", vec.Str, true)
	ctype := storage.NewColumn("contract_type", vec.Str, false)
	status := storage.NewColumn("status", vec.Str, false)
	vendor := storage.NewColumn("vendor", vec.Str, true)
	product := storage.NewColumn("product", vec.Str, false)
	descr := storage.NewColumn("description", vec.Str, false)
	awardID := storage.NewColumn("award_id", vec.Str, false)
	yearStr := storage.NewColumn("year_str", vec.Str, false) // a date stored as string, per the workload study
	amount := storage.NewColumn("amount", vec.I64, false)
	yearNum := storage.NewColumn("year", vec.I32, false)
	offices := storage.NewColumn("office_id", vec.I32, false)

	zAgency := newZipf(rng, nAgencies)
	zDept := newZipf(rng, nDepts)
	zState := newZipf(rng, len(stateNames))
	zVendor := newZipf(rng, nVendors)
	zProduct := newZipf(rng, nProducts)

	for i := 0; i < rows; i++ {
		agency.AppendString(agencyNames[zAgency.draw()])
		if rng.Intn(20) == 0 {
			dept.AppendNull()
		} else {
			dept.AppendString(deptNames[zDept.draw()])
		}
		if rng.Intn(15) == 0 {
			state.AppendNull()
		} else {
			state.AppendString(stateNames[zState.draw()])
		}
		ctype.AppendString(contractTypes[rng.Intn(nTypes)])
		status.AppendString(statuses[rng.Intn(nStatuses)])
		if rng.Intn(25) == 0 {
			vendor.AppendNull()
		} else {
			vendor.AppendString(vendorNames[zVendor.draw()])
		}
		product.AppendString(productNames[zProduct.draw()])
		// description and award_id are near-unique: their dictionaries
		// overflow the USSR (the paper's Q6/Q8/Q20 regime).
		descr.AppendString(fmt.Sprintf("CONTRACT ACTION %09d MODIFICATION %03d", i, rng.Intn(1000)))
		awardID.AppendString(fmt.Sprintf("AW-%04d-%07d", rng.Intn(10000), i))
		y := 2010 + rng.Intn(10)
		yearStr.AppendString(fmt.Sprintf("%d", y))
		amount.AppendInt(int64(rng.Intn(10_000_000)) + 100)
		yearNum.AppendInt(int64(y))
		offices.AppendInt(int64(rng.Intn(nOfficeIDs)))
	}
	contracts := storage.NewTable("contracts",
		agency, dept, state, ctype, status, vendor, product, descr, awardID,
		yearStr, amount, yearNum, offices)
	contracts.Seal()
	cat.Add(contracts)

	vName := storage.NewColumn("v_name", vec.Str, false)
	vState := storage.NewColumn("v_state", vec.Str, false)
	vSize := storage.NewColumn("v_size", vec.I32, false)
	for i := 0; i < nVendors; i++ {
		vName.AppendString(vendorNames[i])
		vState.AppendString(stateNames[rng.Intn(len(stateNames))])
		vSize.AppendInt(int64(rng.Intn(5)))
	}
	vendors := storage.NewTable("vendors", vName, vState, vSize)
	vendors.Seal()
	cat.Add(vendors)
	return cat
}
