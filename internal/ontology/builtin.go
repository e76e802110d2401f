package ontology

// This file holds the four application ontologies of the paper's
// experiments: obituaries and car advertisements (the training applications
// of Tables 1–5) and computer job advertisements and university course
// descriptions (the additional test applications of Tables 8 and 9). Each is
// authored in the package DSL and parsed once at init.
//
// The ontologies are "narrow in breadth" as the paper requires — a couple of
// dozen object sets at most — and their data frames recognize the constants
// and keywords that the synthetic corpus (internal/corpus) and the paper's
// Figure 2 example contain.

// ObituarySrc is the obituary application ontology DSL source.
const ObituarySrc = `
ontology Obituary
entity Obituary

lexicon Month {
    January February March April May June July August September October
    November December
}
lexicon Weekday { Monday Tuesday Wednesday Thursday Friday Saturday Sunday }

# Record-identifying fields (§4.5): the three one-to-one keyword-indicated
# sets below — DeathDate, FuneralService, Interment — are selected by the
# 20% rule and drive the OM heuristic.

object DeathDate : one-to-one {
    type date
    keyword ` + "`died on|passed away`" + `
    value ` + "`{Month} [0-9]{1,2}, [0-9]{4}`" + `
}
object FuneralService : one-to-one {
    type service
    keyword ` + "`[Ff]uneral services|Services will be held|A memorial service`" + `
}
object Interment : one-to-one {
    type burial
    keyword ` + "`Interment|Burial|Entombment|[Cc]remation`" + `
}
object DeceasedName : one-to-one {
    type name
    value ` + "`[A-Z][a-z]+(?: [A-Z]\\.?| [A-Z][a-z]+)? [A-Z][a-z]+`" + `
}
object Age : functional {
    type number
    keyword ` + "`age [0-9]{1,3}`" + `
    value ` + "`[0-9]{1,3}`" + `
}
object BirthDate : functional {
    type date
    keyword ` + "`was born(?: on)?`" + `
    value ` + "`{Month} [0-9]{1,2}, [0-9]{4}`" + `
}
object BirthPlace : functional {
    type place
    keyword ` + "`born .{0,24}\\bin [A-Z][a-z]+`" + `
}
object FuneralHome : functional {
    type place
    value ` + "`[A-Z][A-Z'&. ]{4,40}(?:MORTUARY|CHAPEL|FUNERAL HOME)`" + `
}
object ViewingTime : functional {
    type viewing
    keyword ` + "`[Ff]riends may call|[Vv]isitation`" + `
}
object Cemetery : functional {
    type place
    value ` + "`[A-Z][a-z]+(?: [A-Z][a-z]+)? [Cc]emetery`" + `
}
object FuneralDate : functional {
    type date
    keyword ` + "`services .{0,40}{Weekday}`" + `
    value ` + "`{Month} [0-9]{1,2}, [0-9]{4}`" + `
}
object Relative : many {
    type name
    keyword ` + "`survived by|preceded in death by`" + `
}
object Spouse : functional {
    type name
    keyword ` + "`married|husband|wife`" + `
}
object Church : functional {
    type place
    keyword ` + "`church|parish|ward`" + `
}

relationship Dies : Obituary [1] DeathDate [1]
relationship Honors : Obituary [1] FuneralService [1]
relationship RestsAt : Obituary [1] Interment [1]
`

// CarAdSrc is the car-advertisement application ontology DSL source.
const CarAdSrc = `
ontology CarAd
entity CarAd

lexicon Make {
    Ford Chevrolet Chevy Toyota Honda Dodge Nissan Buick Pontiac Chrysler
    Jeep Mercury Oldsmobile Plymouth Subaru Mazda Volkswagen BMW Cadillac
    Saturn
}
lexicon Color {
    red blue white black green silver gold maroon teal tan gray burgundy
}

# Record-identifying fields: Price (keyword-indicated), then Year and Phone
# (value-identified with unique types).

object Price : one-to-one {
    type price
    keyword ` + "`[Aa]sking|[Pp]riced at`" + `
    value ` + "`\\$[0-9][0-9,]*`" + `
}
object Year : one-to-one {
    type year
    value ` + "`\\b19[789][0-9]\\b`" + `
}
object Phone : one-to-one {
    type phone
    value ` + "`\\(?[0-9]{3}\\)?[ -][0-9]{3}-[0-9]{4}`" + `
}
object Make : one-to-one {
    type makename
    value ` + "`{Make}`" + `
}
object Model : functional {
    type modelname
    value ` + "`(?:Taurus|Escort|Mustang|Civic|Accord|Corolla|Camry|Cavalier|Corsica|Lumina|Caravan|Neon|Sentra|Altima|LeSabre|Regal|Jetta|Passat|Legacy|Protege)`" + `
}
object Mileage : functional {
    type miles
    keyword ` + "`[0-9][0-9,]*[Kk]? (?:miles|mi\\.)|low miles`" + `
    value ` + "`[0-9][0-9,]*[Kk]?`" + `
}
object Color : functional {
    type colorname
    value ` + "`{Color}`" + `
}
object Transmission : functional {
    type transmission
    keyword ` + "`automatic|5-speed|4-speed|manual|auto trans`" + `
}
object Condition : functional {
    type condition
    keyword ` + "`excellent condition|good condition|runs great|must sell|like new`" + `
}
object Feature : many {
    type feature
    keyword ` + "`A/C|air|power (?:windows|locks|steering)|CD|cassette|sunroof|leather|cruise`" + `
}
object Seller : functional {
    type name
    keyword ` + "`[Cc]all [A-Z][a-z]+`" + `
}

relationship Costs : CarAd [1] Price [1]
relationship ModelYear : CarAd [1] Year [1]
relationship Contact : CarAd [1] Phone [1]
`

// JobAdSrc is the computer-job-advertisement application ontology DSL source.
const JobAdSrc = `
ontology JobAd
entity JobAd

lexicon Skill {
    Java C COBOL SQL Oracle Sybase UNIX Windows HTML Perl CGI Visual
    PowerBuilder Informix DB2 TCP/IP Novell
}

# Record-identifying fields: HowToApply (keyword), ContactEmail and JobCode
# (value-identified, unique types).

object HowToApply : one-to-one {
    type apply
    keyword ` + "`[Ss]end resume|[Aa]pply (?:to|at|online)|[Ff]ax resume|EOE`" + `
}
object ContactEmail : one-to-one {
    type email
    value ` + "`[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,6}`" + `
}
object JobCode : one-to-one {
    type code
    value ` + "`(?:Job|Ref)\\.? ?#? ?[A-Z]?[0-9]{3,6}`" + `
}
object JobTitle : one-to-one {
    type title
    value ` + "`(?:Programmer(?:/Analyst)?|Software Engineer|Systems? Analyst|Database Administrator|Web Developer|Network Administrator|Project Manager|Help Desk Technician)`" + `
}
object Employer : functional {
    type company
    keyword ` + "`[A-Z][A-Za-z]+ (?:Inc|Corp|LLC|Systems|Technologies|Consulting)\\.?`" + `
}
object Salary : functional {
    type salary
    keyword ` + "`\\$[0-9]{2,3}[Kk]|salary|DOE|competitive`" + `
}
object Location : functional {
    type place
    keyword ` + "`located in|position in [A-Z][a-z]+`" + `
}
object Skill : many {
    type skillname
    value ` + "`\\b{Skill}\\b`" + `
}
object Experience : functional {
    type years
    keyword ` + "`[0-9]\\+? years?(?: of)? experience`" + `
}
object ContactPhone : functional {
    type phone
    value ` + "`\\(?[0-9]{3}\\)?[ -][0-9]{3}-[0-9]{4}`" + `
}
object Degree : functional {
    type degree
    keyword ` + "`BS|MS|[Bb]achelor|[Mm]aster|degree required`" + `
}

relationship Hires : JobAd [1] HowToApply [1]
relationship Reaches : JobAd [1] ContactEmail [1]
relationship Codes : JobAd [1] JobCode [1]
`

// CourseSrc is the university-course-description application ontology DSL
// source.
const CourseSrc = `
ontology Course
entity Course

lexicon Dept {
    CS MATH PHYS CHEM ENGL HIST BIOL ECON PSYCH PHIL STAT GEOG
}

# Record-identifying fields: Credits and Instructor (keyword-indicated),
# CourseCode (value-identified, unique type).

object Credits : one-to-one {
    type credits
    keyword ` + "`[0-9](?:\\.[0-9])? (?:credit hours|credits|cr\\.|sem\\. hrs)`" + `
}
object Instructor : one-to-one {
    type staff
    keyword ` + "`Instructor:|Taught by`" + `
}
object CourseCode : one-to-one {
    type code
    value ` + "`{Dept} ?[0-9]{3}[A-Z]?`" + `
}
object CourseTitle : one-to-one {
    type title
    value ` + "`(?:Introduction to|Advanced|Principles of|Topics in|Foundations of|Seminar in) [A-Z][A-Za-z ]+`" + `
}
object Schedule : functional {
    type meeting
    keyword ` + "`MWF|TTh|MTWThF|Daily at`" + `
}
object Room : functional {
    type room
    keyword ` + "`Room [0-9]{1,4}|Bldg\\.? [A-Z0-9]+`" + `
}
object Prerequisite : many {
    type prereq
    keyword ` + "`Prerequisites?:`" + `
}
object Enrollment : functional {
    type number
    keyword ` + "`limited to [0-9]+|enrollment cap`" + `
}
object Term : functional {
    type term
    keyword ` + "`Fall|Winter|Spring|Summer`" + `
}
object ExamInfo : functional {
    type exam
    keyword ` + "`final exam|midterm`" + `
}

relationship Earns : Course [1] Credits [1]
relationship TaughtBy : Course [1] Instructor [1]
relationship CodedAs : Course [1] CourseCode [1]
`

// Builtin lazily-parsed application ontologies, keyed by domain name:
// "obituary", "carad", "jobad", "course".
var builtin = map[string]*Ontology{}

func init() {
	for name, src := range map[string]string{
		"obituary": ObituarySrc,
		"carad":    CarAdSrc,
		"jobad":    JobAdSrc,
		"course":   CourseSrc,
	} {
		builtin[name] = MustParse(src)
	}
}

// Builtin returns the named built-in application ontology ("obituary",
// "carad", "jobad", "course"), or nil if unknown. The returned ontology is
// shared; callers must not mutate it.
func Builtin(name string) *Ontology { return builtin[name] }

// BuiltinNames lists the built-in ontology names in a fixed order.
func BuiltinNames() []string { return []string{"obituary", "carad", "jobad", "course"} }

// BuiltinName returns the name ont is built in under, or "" when ont is nil
// or not one of the shared built-in ontologies (a parsed copy of the same
// source is not).
func BuiltinName(ont *Ontology) string {
	for _, name := range BuiltinNames() {
		if builtin[name] == ont {
			return name
		}
	}
	return ""
}
