package emulator

// OracleJSON exposes the MarshalIndent reference encoding of a report
// to the external tests, which can reach the conformance corpus.
var OracleJSON = oracleJSON
